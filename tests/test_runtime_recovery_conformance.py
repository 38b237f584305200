"""One recovery loop, one rule, two callers: the same scenarios through
a one-shot ``SparseCholesky(backend="mp")`` instance and through
``FactorService`` on the 12 x 12 grid. One table pins, for both, the
outcome tag, the number of parallel attempts (``run`` calls), the crew's
final width and a factor bitwise equal to the sequential
``BlockCholesky``; a twice restarted façade factor opens one pool and at
most one arena; and a hard kill on the 2 x 2 grid re-runs on a 4-wide
crew, bitwise the clean P = 4 factor, through both callers."""

import numpy as np
import pytest

from repro.matrices import grid2d_matrix
from repro.numeric import BlockCholesky
from repro.runtime import FanoutError, shm_available
from repro.runtime.arena import BlockArena
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.runtime.pool import WorkerPool
from repro.service import FactorService, JobFailed
from repro.solver import SparseCholesky
from tests.conftest import facade_job, mp_fanout

FAST = dict(timeout_s=120.0)
SOFT = FaultPlan(seed=0, crash=(CrashSpec(1, 1),))
HARD = FaultPlan(seed=0, crash=(CrashSpec(1, 1, hard=True),))
PERSISTENT = FaultPlan(seed=0, crash=(CrashSpec(1, 1, every_attempt=True),))
DROP, CORRUPT, DELAY = (
    FaultPlan.scenario(name, seed=3, rate=0.2)
    for name in ("drop", "corrupt", "delay")
)

#: scenario -> (fault plan, not SPD?, keywords of both callers,
#:              expected (tag, attempts, final width))
SCENARIOS = {
    # fault-free: one clean attempt, nothing healed
    "none": (None, False, {}, ("clean", 1, 2)),
    # a raising rank stays in the crew, which only re-runs the job
    "soft-crash": (SOFT, False, {}, ("recovered", 2, 2)),
    # a dead process is replaced: the crew keeps its width
    "hard-kill": (HARD, False, {}, ("recovered", 2, 2)),
    # budget of one attempt: the crew is left alone, the job degrades
    "persistent-crash": (PERSISTENT, False, dict(max_restarts=0),
                         ("degraded_sequential", 1, 2)),
    # the default budget: every attempt crashes, the crew is kept
    "persistent-crash-default-budget": (PERSISTENT, False, {},
                                        ("degraded_sequential", 3, 2)),
    # a message fault fails the first attempt (a drop by the watchdog of
    # a faulty job), the re-run sees none
    "drop": (DROP, False, {}, ("recovered", 2, 2)),
    "corrupt": (CORRUPT, False, {}, ("recovered", 2, 2)),
    # a delay reorders frames, never withholds one
    "delay": (DELAY, False, {}, ("clean", 1, 2)),
    # deterministic: one parallel attempt, no heal, the last resort's
    # LinAlgError is the error
    "non-spd": (None, True, {}, ("error", 1, 2)),
}


@pytest.fixture
def pools(monkeypatch):
    """Every ``WorkerPool`` constructed, with its ``run`` count."""
    seen = []
    init, run = WorkerPool.__init__, WorkerPool.run

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.batches_run = 0
        seen.append(self)

    def counting_run(self, *args, **kwargs):
        self.batches_run += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "__init__", counting_init)
    monkeypatch.setattr(WorkerPool, "run", counting_run)
    return seen


def _matrices(grid12_pipeline, not_spd):
    """``(A, A_perm)``: the grid in client order and as permuted for the
    prepared structure, optionally with one negative diagonal entry."""
    problem, sf, _, _, _, _ = grid12_pipeline
    A, A_perm = problem.A.tocsc().copy(), sf.A.tocsc().copy()
    if not_spd:
        perm = np.asarray(sf.ordering.perm)
        A[perm[5], perm[5]] = A_perm[5, 5] = -4.0
    return A, A_perm


def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_one_shot(grid12_pipeline, pools, scenario):
    """A façade instance that serves one factor and is closed."""
    plan, not_spd, kw, expected = SCENARIOS[scenario]
    _, sf, _, bs, _, tg = grid12_pipeline
    _, A_perm = _matrices(grid12_pipeline, not_spd)
    run = dict(nprocs=2, mapping="DW/CY", fault_plan=plan, **FAST, **kw)
    if not_spd:
        with pytest.raises(np.linalg.LinAlgError, match="not positive"):
            facade_job(A_perm, **run)
        # the report rides on the typed error when nothing stands in
        with pytest.raises(FanoutError,
                           match="NotPositiveDefiniteError") as info:
            mp_fanout(bs, A_perm, tg, **run)
        rep = info.value.failure_report
        assert len(rep.attempts) == 1
        tag = "error"
    else:
        res = facade_job(A_perm, **run)
        rep, tag = res.failure_report, res.failure_report.outcome
        assert len(rep.attempts) + rep.ok == expected[1]
        ref = BlockCholesky(bs, A_perm).factor().to_csc()
        assert _bitwise(res.to_csc(), ref)
    assert [p.batches_run for p in pools] == [expected[1]] * len(pools)
    assert (tag, pools[0].batches_run, pools[0].nprocs) == expected


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_service(grid12_pipeline, pools, scenario):
    plan, not_spd, kw, expected = SCENARIOS[scenario]
    _, sf, _, bs, _, _ = grid12_pipeline
    A, A_perm = _matrices(grid12_pipeline, not_spd)
    with FactorService(
        nprocs=2, ordering=np.asarray(sf.ordering.perm), block_size=8,
        mapping="DW/CY", timeout_s=120, **kw,
    ) as svc:
        if not_spd:
            with pytest.raises(JobFailed, match="not positive definite"):
                svc.factor(A, fault_plan=plan)
            tag = "error"
            assert svc.metrics.pool_restarts == 0
        else:
            r = svc.factor(A, fault_plan=plan)
            tag = r.record.outcome
            ref = BlockCholesky(bs, A_perm).factor().to_csc()
            assert _bitwise(r.L, ref)
        if plan is None:  # fault-free or not SPD: nothing healed
            assert svc.metrics.pool_restarts == 0
            assert svc.pool.generation == 1
        record = svc.metrics.records[-1]
        assert record.attempts == expected[1]
        (pool,) = pools
        assert (tag, pool.batches_run, pool.nprocs) == expected


def test_the_service_budget_is_max_restarts(grid12_pipeline, pools):
    """The service reads its attempt budget from ``max_restarts``, as the
    other callers do: with no restart, a crash that a second attempt
    would survive degrades the job to the last resort instead."""
    _, sf, _, bs, _, _ = grid12_pipeline
    A, A_perm = _matrices(grid12_pipeline, False)
    with FactorService(
        nprocs=2, ordering=np.asarray(sf.ordering.perm), block_size=8,
        mapping="DW/CY", max_restarts=0, timeout_s=120,
    ) as svc:
        r = svc.factor(A, fault_plan=SOFT)
        assert (r.record.outcome, r.record.attempts) == (
            "degraded_sequential", 1
        )
        assert _bitwise(r.L, BlockCholesky(bs, A_perm).factor().to_csc())
    assert [p.batches_run for p in pools] == [1]


@pytest.mark.parametrize("transport", ["inline", "shm"])
def test_two_restarts_share_one_pool_and_one_arena(
    grid12_pipeline, pools, monkeypatch, transport
):
    if transport == "shm" and not shm_available():
        pytest.skip("no POSIX shared memory")
    arenas = []
    create = BlockArena.create
    monkeypatch.setattr(
        BlockArena, "create",
        classmethod(lambda cls, tg: arenas.append(create(tg)) or arenas[-1]),
    )
    _, sf, _, bs, _, tg = grid12_pipeline
    # Rank 2 is killed on every attempt: each one runs on a new crew of
    # four, and the budget of max_restarts + 1 = 3 attempts runs out.
    plan = FaultPlan(
        seed=0, crash=(CrashSpec(2, 1, hard=True, every_attempt=True),)
    )
    res = facade_job(sf.A, nprocs=4, mapping="DW/CY", transport=transport,
                     fault_plan=plan, **FAST)
    rep = res.failure_report
    assert rep.outcome == "degraded_sequential"
    assert [a.nprocs for a in rep.attempts] == [4, 4, 4]
    assert len(pools) == 1 and pools[0].generation == 4
    assert (pools[0].batches_run, pools[0].nprocs) == (3, 4)
    assert len(arenas) == (1 if transport == "shm" else 0)
    ref = BlockCholesky(bs, sf.A).factor().to_csc()
    assert _bitwise(res.to_csc(), ref)


@pytest.mark.parametrize("transport", ["inline", "shm"])
@pytest.mark.parametrize("caller", ["facade", "service"])
def test_hard_kill_reruns_on_the_configured_width(pools, caller, transport):
    """P = 4 is a 2 x 2 grid: a column's blocks have two owners, so the
    factor's bits follow the owner grouping, and so the crew width. A job
    whose worker died re-runs on a new crew of four and returns the clean
    P = 4 factor bit for bit — not the factor of three survivors, which
    is the sequential one here."""
    if transport == "shm" and not shm_available():
        pytest.skip("no POSIX shared memory")
    A = grid2d_matrix(12).A.tocsc()
    kw = dict(nprocs=4, block_size=8, transport=transport, **FAST)
    seq = SparseCholesky(A, block_size=8).factor().L
    if caller == "facade":
        def factor(plan):
            with SparseCholesky(A, backend="mp", fault_plan=plan,
                                **kw) as chol:
                return chol.factor().L, chol.failure_report.outcome

        clean, _ = factor(None)
        L, outcome = factor(HARD)
    else:
        with FactorService(**kw) as svc:
            clean = svc.factor(A).L
            r = svc.factor(A, fault_plan=HARD)
            L, outcome = r.L, r.record.outcome
    assert not _bitwise(clean, seq)
    assert outcome == "recovered"
    assert _bitwise(L, clean)
    assert (pools[-1].nprocs, pools[-1].generation) == (4, 2)
