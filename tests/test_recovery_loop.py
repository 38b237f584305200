"""The one factor-job driver, ``run_job``, on a scripted pool: no process
is spawned.

``ScriptedPool`` is a real :class:`WorkerPool` whose crew is imaginary —
``start`` / ``close`` only count generations, ``run`` replays the next
scripted step — so ``restart`` does its real work and :func:`run_job`
sees exactly the surface it uses in production: ``start``, ``run``,
``restart``, ``nprocs``, ``last_error``. An ``ok`` step ships the
sequential factor's blocks as an inline rank does — ids, CRCs and words,
each from its owner — so a finished attempt assembles like a real one.
"""

import logging
import zlib

import numpy as np
import pytest
from scipy import sparse

from repro.config import RunConfig
from repro.numeric import BlockCholesky
from repro.runtime import engine
from repro.runtime.metrics import WorkerMetrics
from repro.runtime.pool import JobOutcome, PoolJob, WorkerPool
from repro.runtime.recovery import run_job, settle
from repro.runtime.worker import WorkerResult

#: The attempt budgets of the pool owners: ``run_mp_fanout`` (one
#: attempt, no fallback) and a resident crew (the façade's, the
#: service's) at the default ``max_restarts``.
ONE_CALL = dict(attempts=1, fallback_sequential=False)
RESIDENT = dict(attempts=3)


class ScriptedPool(WorkerPool):
    def __init__(self, nprocs, *script):
        super().__init__(nprocs)
        self.script = list(script)
        self.dead = []
        self.runs = []  # (crew width, seq) per run
        self.start()

    def start(self):
        if not self.running:
            self._procs = [None] * self.nprocs
            self.generation += 1
            self.dead = []
        return self

    def _stop(self):  # the crew teardown of close() and restart()
        self._procs = []

    def dead_ranks(self):
        return list(self.dead)

    def run(self, job, timeout_s=300.0):
        self.last_error = None
        self.runs.append((self.nprocs, job.seq))
        return self.script.pop(0)(self, job)


def _result(rank, error=None, error_type=None, aborted=False, **shipped):
    m = WorkerMetrics(rank=rank)
    m.error, m.error_type, m.aborted = error, error_type, aborted
    return WorkerResult(rank, m, **shipped)


def _sequential(ctx, values):
    n = len(ctx.indptr) - 1
    A = sparse.csc_matrix((values, ctx.indices, ctx.indptr), shape=(n, n))
    return BlockCholesky(ctx.structure, A).factor()


def ok(pool, job):
    """Every rank ships the blocks the job's context says it owns."""
    ctx, results = job.context, {}
    seq = _sequential(ctx, job.values)
    for r in range(pool.nprocs):
        own = np.flatnonzero(ctx.owners == r)
        blocks = [seq.diag[J] if I == J else seq.below[J][I]
                  for I, J in zip(ctx.tg.block_I[own], ctx.tg.block_J[own])]
        results[r] = _result(
            r, held=(own.astype(np.int32), np.array(
                [zlib.crc32(b) for b in blocks], dtype=np.uint32)),
            words=np.concatenate([b.ravel() for b in blocks]),
        )
    return JobOutcome(job.seq, results, wall_s=0.01)


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


@pytest.fixture
def sequential(grid12_pipeline):
    """The sequential factor of the scripted job's matrix."""
    _, sf, _, bs, _, _ = grid12_pipeline
    return BlockCholesky(bs, sf.A).factor().to_csc()


@pytest.fixture
def drive(grid12_pipeline):
    """``drive(pool, attempts, **kw)``: ``run_job`` over grid12's plan
    for the pool's width. Returns the result, or the typed error it
    raised; either carries the job's ``failure_report``."""
    _, sf, _, bs, _, tg = grid12_pipeline

    def run(pool, attempts, label="j", **kw):
        owners, name = engine.plan_owners(
            tg.workmodel, tg, pool.nprocs, "DW/CY"
        )
        plan = engine.PatternPlan(
            "p", bs, tg, owners, name,
            RunConfig(nprocs=pool.nprocs, mapping="DW/CY", transport="inline"),
        )
        try:
            res = run_job(pool, plan, sf.A, attempts, iter(range(1000)),
                          label=label, **kw)
        except engine.FanoutError as exc:
            res = exc
        # every attempt ran on the owners planned once, for this width,
        # each with a fresh seq
        assert plan.owners is owners
        assert int(owners.max()) == pool.nprocs - 1
        assert [s for _, s in pool.runs] == list(range(len(pool.runs)))
        return res

    return run


def _bitwise(res, ref):
    L = res.to_csc()
    return all(np.array_equal(getattr(L, part), getattr(ref, part))
               for part in ("indptr", "indices", "data"))


class TestBudgetAndOutcomes:
    def test_clean_first_attempt(self, drive, sequential):
        pool = ScriptedPool(4, ok)
        res = drive(pool, 3)
        rep = res.failure_report
        assert rep.ok and rep.outcome == "clean"
        assert (rep.restarts, rep.attempts) == (0, [])
        assert pool.generation == 1 and pool.runs == [(4, 0)]
        assert res.metrics.nprocs == 4 and _bitwise(res, sequential)
        assert res.metrics.extra["gather"]["mode"] == "words"

    @pytest.mark.parametrize("k", [1, 2])
    def test_ok_on_attempt_k_is_recovered(self, drive, sequential, k,
                                          caplog):
        caplog.set_level(logging.INFO, logger="repro.runtime.recovery")
        pool = ScriptedPool(4, *[raising()] * k, ok)
        res = drive(pool, 3, "J7")
        rep = res.failure_report
        assert rep.ok and rep.outcome == "recovered"
        assert rep.restarts == k == len(rep.attempts)
        assert [a.attempt for a in rep.attempts] == list(range(k))
        assert "RuntimeError: boom on 1" in rep.attempts[0].error
        assert pool.runs == [(4, s) for s in range(k + 1)]
        assert _bitwise(res, sequential)
        infos = [r for r in caplog.records if r.levelno == logging.INFO]
        assert len(infos) == 1 and "J7 recovered" in infos[0].getMessage()

    def test_budget_exhausted_goes_to_the_last_resort(
        self, drive, sequential, caplog
    ):
        caplog.set_level(logging.INFO, logger="repro.runtime.recovery")
        pool = ScriptedPool(4, raising(), raising())
        res = drive(pool, 2, "J1")
        rep = res.failure_report
        assert rep.outcome == "degraded_sequential" and not rep.ok
        assert (len(rep.attempts), rep.restarts) == (2, 2)
        assert pool.runs == [(4, 0), (4, 1)]
        assert np.array_equal(res.to_csc().data, sequential.data)
        assert res.metrics.mapping == "sequential-fallback"
        assert res.meta == {"fallback": True} and res.solution is None
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

    def test_no_attempt_goes_straight_to_the_last_resort(
        self, drive, sequential
    ):
        """``attempts=0``: the pool is left alone and the job is the
        sequential factor."""
        pool = ScriptedPool(4)
        res = drive(pool, 0)
        rep = res.failure_report
        assert rep.outcome == "degraded_sequential"
        assert (rep.attempts, rep.restarts) == ([], 0)
        assert pool.runs == [] and pool.generation == 1
        assert _bitwise(res, sequential)

    def test_deterministic_error_gets_one_attempt_and_no_heal(
        self, drive, sequential
    ):
        pool = ScriptedPool(4, raising(error_type="LinAlgError"))
        res = drive(pool, 3)
        rep = res.failure_report
        assert not rep.ok and rep.outcome == "degraded_sequential"
        assert pool.runs == [(4, 0)] and len(rep.attempts) == 1
        assert (pool.generation, pool.nprocs) == (1, 4)
        assert rep.attempts[0].failed_ranks == [1]
        assert _bitwise(res, sequential)


class TestCrewShrinkRule:
    """One rule for every crew, and it never shrinks one: a rank that
    merely raised stays, a broken crew (a dead process, a stall) is
    restarted at its own width, whether another attempt follows or not."""

    def test_raising_rank_stays_in_a_resident_crew(self, drive):
        pool = ScriptedPool(4, raising(), ok)
        res = drive(pool, 3)
        assert res.failure_report.outcome == "recovered"
        assert pool.runs == [(4, 0), (4, 1)]
        assert pool.generation == 1

    @pytest.mark.parametrize("policy", [ONE_CALL, RESIDENT])
    def test_dead_process_restarts_either_crew(self, drive, caplog,
                                               policy):
        """``run_mp_fanout``'s one-attempt crew is restarted too (then
        closed by its caller); a resident one retries on a new crew of
        the same width, with the same owners."""
        caplog.set_level(logging.WARNING, logger="repro.runtime.recovery")
        pool = ScriptedPool(4, died(1), ok)
        res = drive(pool, **policy)
        rep = res.failure_report
        assert pool.runs == [(4, 0), (4, 1)][:policy["attempts"]]
        assert (pool.generation, pool.nprocs) == (2, 4)
        assert rep.attempts[0].failed_ranks == [1]
        assert "died" in rep.attempts[0].error
        restarts = [r.getMessage() for r in caplog.records
                    if "restarted" in r.msg]
        assert len(restarts) == 1
        assert "(4 workers, generation 2)" in restarts[0]

    def test_stall_restarts_a_resident_crew_at_the_same_width(self, drive):
        pool = ScriptedPool(4, stalled, ok)
        res = drive(pool, 3)
        assert pool.runs == [(4, 0), (4, 1)]
        assert pool.generation == 2
        assert res.failure_report.outcome == "recovered"

    def test_no_ranks_are_shed_for_an_attempt_that_will_not_follow(
        self, drive
    ):
        """Budget spent: a crew a rank merely raised in is left alone; a
        broken one is replaced whatever follows (it may serve the next
        job), at its own width."""
        pool = ScriptedPool(4, raising())
        drive(pool, 1)
        assert (pool.generation, pool.nprocs) == (1, 4)
        pool = ScriptedPool(4, died(1), died(2))
        res = drive(pool, 2)
        assert (pool.generation, pool.nprocs) == (3, 4)
        assert pool.runs == [(4, 0), (4, 1)]
        assert [a.nprocs for a in res.failure_report.attempts] == [4, 4]

    def test_every_attempt_is_settled(self, drive):
        """Whichever way an attempt ends, the crew is settled after it:
        only the attempt that broke it gets a new one."""
        pool = ScriptedPool(4, raising(), died(1), ok)
        res = drive(pool, 3)
        assert res.failure_report.outcome == "recovered"
        assert pool.runs == [(4, 0), (4, 1), (4, 2)]
        assert (pool.generation, pool.nprocs) == (2, 4)

    def test_settle_alone(self):
        """What ``FactorService.solve`` calls after its warm solve job."""
        pool = ScriptedPool(2, ok)
        assert settle(pool) is False and pool.generation == 1
        died(1)(pool, PoolJob(0, "p", None))
        assert settle(pool) is True
        assert (pool.generation, pool.nprocs) == (2, 2)


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

    def test_a_healed_crew_keeps_the_dead_workers_error(self, drive):
        """The crew the last attempt's dead process broke is replaced
        before the job's error is typed; the error still names the
        death."""
        pool = ScriptedPool(4, died(1))
        err = drive(pool, **ONE_CALL)
        assert pool.dead_ranks() == [] and pool.nprocs == 4
        assert isinstance(err, engine.DeadWorkerError)
        assert err.failure_report.outcome == "degraded_sequential"
