"""The recovery loop on a scripted pool: no process is spawned.

``ScriptedPool`` is a real :class:`WorkerPool` whose crew is imaginary —
``start`` / ``close`` only count generations, ``run`` replays the next
scripted step — so ``restart`` does its real work and :func:`recover`
sees exactly the surface it uses in production: ``run``, ``restart``,
``nprocs``, ``last_error``.
"""

import logging
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import RunConfig
from repro.numeric import BlockCholesky
from repro.runtime import engine
from repro.runtime.metrics import WorkerMetrics
from repro.runtime.pool import JobOutcome, PoolJob, WorkerPool
from repro.runtime.recovery import (
    RecoveryJob,
    last_resort,
    recover,
    settle,
)
from repro.runtime.worker import WorkerResult

#: The attempt budgets of the recovery loop's callers: ``run_mp_fanout``
#: and a resident crew (the façade's, the service's) at the default
#: ``max_restarts``.
ONE_CALL = dict(attempts=1)
RESIDENT = dict(attempts=3)


class ScriptedPool(WorkerPool):
    def __init__(self, nprocs, *script):
        super().__init__(nprocs)
        self.script = list(script)
        self.dead = []
        self.runs = []  # (crew width, seq) per run
        self.start()

    def start(self):
        self.generation += 1
        self.dead = []
        return self

    def close(self):
        pass

    def dead_ranks(self):
        return list(self.dead)

    def run(self, job, timeout_s=300.0):
        self.last_error = None
        self.runs.append((self.nprocs, job.seq))
        return self.script.pop(0)(self, job)


def _result(rank, error=None, error_type=None, aborted=False):
    m = WorkerMetrics(rank=rank)
    m.error, m.error_type, m.aborted = error, error_type, aborted
    return WorkerResult(rank, m, [])


def ok(pool, job):
    return JobOutcome(
        job.seq, {r: _result(r) for r in range(pool.nprocs)}, wall_s=0.01
    )


def raising(rank=1, error_type="RuntimeError"):
    """Rank ``rank`` raises; its peers abort. Every process stays alive."""

    def step(pool, job):
        text = f"Traceback ...\n{error_type}: boom on {rank}"
        return JobOutcome(
            job.seq,
            {
                r: _result(r, text, error_type) if r == rank
                else _result(r, aborted=True)
                for r in range(pool.nprocs)
            },
            error=text, aborted=True, failed_ranks=[rank],
        )

    return step


def died(rank=1):
    """Rank ``rank``'s process dies without reporting."""

    def step(pool, job):
        pool.dead = [rank]
        pool.last_error = f"pool worker process(es) died: ['w{rank}']"
        return JobOutcome(
            job.seq, {0: _result(0, aborted=True)},
            error=pool.last_error, aborted=True, failed_ranks=[rank],
            broke=pool.last_error, died=True,
        )

    return step


def stalled(pool, job):
    """The job timed out with every process alive."""
    pool.last_error = "pool job timeout after 1s"
    return JobOutcome(
        job.seq, {}, error=pool.last_error, aborted=True,
        failed_ranks=list(range(pool.nprocs)), broke=pool.last_error,
    )


def expired(pool, job):
    return JobOutcome(
        job.seq, {r: _result(r, aborted=True) for r in range(pool.nprocs)},
        error=f"job {job.seq} deadline exceeded", aborted=True, expired=True,
    )


@pytest.fixture
def make_job(grid12_pipeline):
    _, sf, _, bs, _, tg = grid12_pipeline

    def make(label="j", nprocs=4):
        owners, name = engine.plan_owners(tg.workmodel, tg, nprocs, "DW/CY")
        plan = SimpleNamespace(
            structure=bs, tg=tg, owners=owners, mapping_name=name,
            config=RunConfig(nprocs=nprocs, mapping="DW/CY"),
        )
        return RecoveryJob(plan, sf.A, label)

    return make


def _run(pool, job, attempts, settled=None):
    seqs = iter(range(1000))
    owners = job.plan.owners

    def spec(attempt):
        # every attempt runs on the owners planned once, for this width
        assert job.plan.owners is owners
        assert int(owners.max()) == pool.nprocs - 1
        return PoolJob(next(seqs), "p", None)

    left = recover(pool, job, spec, attempts, 60.0, settled)
    # the job comes back, holding the PoolJob its last attempt shipped
    assert left is job and job.shipped.seq == pool.runs[-1][1]
    return job


class TestBudgetAndOutcomes:
    def test_clean_first_attempt(self, make_job):
        pool = ScriptedPool(4, ok)
        job = _run(pool, make_job(), 3)
        rep = job.report
        assert job.report.ok and rep.outcome == "clean"
        assert (rep.restarts, rep.attempts) == (0, [])
        assert pool.generation == 1 and pool.runs == [(4, 0)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_ok_on_attempt_k_is_recovered(self, make_job, k, caplog):
        caplog.set_level(logging.INFO, logger="repro.runtime.recovery")
        pool = ScriptedPool(4, *[raising()] * k, ok)
        job = _run(pool, make_job("J7"), 3)
        rep = job.report
        assert job.report.ok and rep.outcome == "recovered"
        assert rep.restarts == k == len(rep.attempts)
        assert [a.attempt for a in rep.attempts] == list(range(k))
        assert "RuntimeError: boom on 1" in rep.attempts[0].error
        infos = [r for r in caplog.records if r.levelno == logging.INFO]
        assert len(infos) == 1 and "J7 recovered" in infos[0].getMessage()

    def test_budget_exhausted_goes_to_the_last_resort(
        self, make_job, grid12_pipeline, caplog
    ):
        caplog.set_level(logging.INFO, logger="repro.runtime.recovery")
        _, sf, _, bs, _, _ = grid12_pipeline
        pool = ScriptedPool(4, raising(), raising())
        job = _run(pool, make_job("J1"), 2)
        rep = job.report
        assert not job.report.ok and not job.outcome.expired
        assert rep.outcome == "degraded_sequential" and not rep.ok
        assert (len(rep.attempts), rep.restarts) == (2, 2)
        assert len(pool.runs) == 2
        factor, metrics = last_resort(job)
        ref = BlockCholesky(bs, sf.A).factor().to_csc()
        assert np.array_equal(factor.to_csc().data, ref.data)
        assert metrics.mapping == "sequential-fallback"
        assert (rep.restarts, rep.degraded) == (2, True)
        warnings = [
            r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING
        ]
        # one per failed attempt, one for the fallback; nothing restarted
        assert len(warnings) == 3
        assert "J1: attempt 0 (P=4) failed [ranks [1]]" in warnings[0]
        assert "ms: RuntimeError: boom on 1" in warnings[0]
        assert "J1: sequential fallback after 2 failed" in warnings[2]

    def test_expired_is_never_retried(self, make_job):
        pool = ScriptedPool(4, expired)
        job = _run(pool, make_job(), 3)
        assert not job.report.ok and job.outcome.expired
        assert len(pool.runs) == 1 and len(job.report.attempts) == 1
        assert pool.generation == 1

    def test_deterministic_error_gets_one_attempt_and_no_heal(
        self, make_job
    ):
        pool = ScriptedPool(4, raising(error_type="LinAlgError"))
        job = _run(pool, make_job(), 3)
        rep = job.report
        assert not job.report.ok and rep.outcome == "degraded_sequential"
        assert len(pool.runs) == 1 and len(rep.attempts) == 1
        assert (pool.generation, pool.nprocs) == (1, 4)
        assert job.outcome.failed_ranks == [1]


class TestCrewShrinkRule:
    """One rule for every crew, and it never shrinks one: a rank that
    merely raised stays, a broken crew (a dead process, a stall) is
    restarted at its own width, whether another attempt follows or not."""

    def test_raising_rank_stays_in_a_resident_crew(self, make_job):
        pool = ScriptedPool(4, raising(), ok)
        job = _run(pool, make_job(), 3)
        assert job.report.outcome == "recovered"
        assert [w for w, _ in pool.runs] == [4, 4]
        assert pool.generation == 1

    @pytest.mark.parametrize("policy", [ONE_CALL, RESIDENT])
    def test_dead_process_restarts_either_crew(self, make_job, caplog,
                                               policy):
        """``run_mp_fanout``'s one-attempt crew is restarted too (then
        closed by its caller); a resident one retries on a new crew of
        the same width, with the same owners."""
        caplog.set_level(logging.WARNING, logger="repro.runtime.recovery")
        pool = ScriptedPool(4, died(1), ok)
        job = _run(pool, make_job(), **policy)
        assert [w for w, _ in pool.runs] == [4, 4][:policy["attempts"]]
        assert (pool.generation, pool.nprocs) == (2, 4)
        assert job.report.attempts[0].failed_ranks == [1]
        assert "died" in job.report.attempts[0].error
        restarts = [r.getMessage() for r in caplog.records
                    if "restarted" in r.msg]
        assert len(restarts) == 1
        assert "(4 workers, generation 2)" in restarts[0]

    def test_stall_restarts_a_resident_crew_at_the_same_width(self, make_job):
        pool = ScriptedPool(4, stalled, ok)
        job = _run(pool, make_job(), 3)
        assert [w for w, _ in pool.runs] == [4, 4]
        assert pool.generation == 2 and job.report.outcome == "recovered"

    def test_no_ranks_are_shed_for_an_attempt_that_will_not_follow(
        self, make_job
    ):
        """Budget spent: a crew a rank merely raised in is left alone; a
        broken one is replaced whatever follows (it may serve the next
        job), at its own width."""
        pool = ScriptedPool(4, raising())
        _run(pool, make_job(), 1)
        assert (pool.generation, pool.nprocs) == (1, 4)
        pool = ScriptedPool(4, died(1), died(2))
        job = _run(pool, make_job(), 2)
        assert (pool.generation, pool.nprocs) == (3, 4)
        assert [w for w, _ in pool.runs] == [4, 4]
        assert [a.nprocs for a in job.report.attempts] == [4, 4]

    def test_settle_alone(self):
        """What ``FactorService.solve`` calls after its warm solve job."""
        pool = ScriptedPool(2, ok)
        assert settle(pool) is False and pool.generation == 1
        died(1)(pool, PoolJob(0, "p", None))
        assert settle(pool) is True
        assert (pool.generation, pool.nprocs) == (2, 2)


class TestCallerStop:
    def test_stop_predicate_is_honoured_between_attempts(self, make_job):
        heard = []

        def settled(healed):
            heard.append(healed)
            return False

        pool = ScriptedPool(4, died(1), ok)
        job = _run(pool, make_job(), 3, settled)
        assert heard == [True]
        assert len(pool.runs) == 1 and not job.report.ok
        assert job.report.outcome == "degraded_sequential"
        # the crew was still replaced: the pool is fit for the next job
        assert (pool.generation, pool.nprocs) == (2, 4)

    def test_predicate_hears_every_attempt(self, make_job):
        heard = []
        pool = ScriptedPool(4, raising(), died(1), ok)
        _run(pool, make_job(), 3, lambda h: heard.append(h) or True)
        assert heard == [False, True, False]


class TestTypedError:
    def test_a_broken_pool_outranks_a_raising_rank(self):
        """:func:`~repro.runtime.engine.raise_failure`'s order, the one
        every caller types a failed job by: what broke the crew — a dead
        process or the job timeout — names the error even when a rank
        also raised; whatever is raised carries the report it was given.
        It reads the outcome only, so a crew restarted in between (dead
        ranks gone) types it the same."""
        pool = ScriptedPool(2)
        job = PoolJob(0, "p", None)
        out = raising(1)(pool, job)
        with pytest.raises(engine.WorkerError, match="boom on 1"):
            engine.raise_failure(out)
        out.broke, out.died = "pool worker process(es) died: ['w0']", True
        report = object()
        with pytest.raises(engine.DeadWorkerError, match="died") as info:
            engine.raise_failure(out, report)
        assert info.value.failure_report is report
        assert info.value.failed_ranks == [1]
        out.broke, out.died = "pool job timeout after 1s", False
        with pytest.raises(engine.RuntimeTimeoutError, match="timeout"):
            engine.raise_failure(out)

    def test_a_healed_crew_keeps_the_dead_workers_error(self, make_job):
        """The crew the last attempt's dead process broke is replaced
        before the job's error is typed; the error still names the
        death."""
        pool = ScriptedPool(4, died(1))
        job = _run(pool, make_job(), 1)
        assert pool.dead_ranks() == [] and pool.nprocs == 4
        with pytest.raises(engine.DeadWorkerError):
            engine.raise_failure(job.outcome)
