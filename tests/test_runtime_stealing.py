"""The dynamic schedule (work stealing): factors bitwise identical to the
static schedule on both transports, exact migration-adjusted accounting,
steal-aware trace replay, crash recovery, and a pool restarted at its
configured width after a worker death."""

import numpy as np
import pytest

from repro.analysis.trace_replay import replay_trace, validate_trace
from repro.numeric import BlockCholesky
from repro.runtime import (
    plan_owners,
    run_mp_fanout,
    shm_available,
    validate_runtime,
)
from repro.runtime.faults import FaultPlan
from tests.conftest import facade_job

TRANSPORTS = ["inline"] + (["shm"] if shm_available() else [])


def _run(pipe, schedule, transport, nprocs=4, **kw):
    _, sf, _, bs, wm, tg = pipe
    owners, name = plan_owners(wm, tg, nprocs, "DW/CY")
    return run_mp_fanout(
        bs, sf.A, tg, owners, nprocs, mapping=name,
        schedule=schedule, transport=transport, **kw
    )


@pytest.fixture(scope="module")
def throttle_pipeline():
    """The 12 x 12 grid at B = 4 (970 tasks): a rank runs its BMODs as
    panel updates, so at B = 8 the throttled rank has so few ops — and
    reads its inbox so seldom — that a run can end without one grant; at
    B = 4 every run migrates work."""
    from repro.blocks import BlockPartition, BlockStructure, WorkModel
    from repro.fanout import TaskGraph
    from repro.matrices import grid2d_matrix
    from repro.ordering import order_problem
    from repro.symbolic import symbolic_factor

    problem = grid2d_matrix(12)
    sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
    part = BlockPartition(sf, 4)
    bs = BlockStructure(part)
    wm = WorkModel(bs)
    return problem, sf, part, bs, wm, TaskGraph(wm)


def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


class TestBitwiseIdentity:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_dynamic_matches_static_bitwise(self, grid12_pipeline, transport):
        """The core determinism contract: stealing moves *where* a task
        runs, never *what* it computes — same kernel, same input bytes,
        same canonical accumulation slot."""
        _, sf, _, bs, *_ = grid12_pipeline
        st = _run(grid12_pipeline, "static", transport)
        dy = _run(grid12_pipeline, "dynamic", transport)
        L_st, L_dy = st.to_csc(), dy.to_csc()
        assert _bitwise(L_dy, L_st)
        seq = BlockCholesky(bs, sf.A).factor().to_csc()
        assert abs(L_dy - seq).max() < 1e-10
        assert dy.metrics.schedule == "dynamic"
        assert dy.metrics.tasks_total == st.metrics.tasks_total

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_dynamic_under_throttle_bitwise(self, throttle_pipeline,
                                            transport):
        """A throttled worker forces real migrations; the factor still
        matches an unfaulted static run bitwise."""
        st = _run(throttle_pipeline, "static", transport)
        plan = FaultPlan.scenario("slow", rank=0, slow_s=0.005, seed=3)
        dy = _run(
            throttle_pipeline, "dynamic", transport,
            fault_plan=plan,
        )
        assert _bitwise(dy.to_csc(), st.to_csc())
        assert dy.metrics.tasks_stolen_total > 0

    def test_rejects_unknown_schedule(self, grid12_pipeline):
        with pytest.raises(ValueError):
            _run(grid12_pipeline, "stochastic", "inline")


class TestAccounting:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_migration_adjusted_work_is_exact(
        self, grid12_pipeline, transport
    ):
        """executed - stolen_in + shipped_away == the WorkModel owner
        share, integer for integer; message/byte counters stay on the
        static prediction because steal traffic rides its own ledger."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = _run(grid12_pipeline, "dynamic", transport)
        rep = validate_runtime(
            bs, sf.A, tg, problem="grid12", result=res, strict=True,
        )
        assert rep.ok

    def test_steal_ledger_is_consistent(self, throttle_pipeline):
        plan = FaultPlan.scenario("slow", rank=0, slow_s=0.005, seed=3)
        res = _run(
            throttle_pipeline, "dynamic", "inline",
            fault_plan=plan,
        )
        m = res.metrics
        stolen = sum(w.tasks_stolen for w in m.workers)
        shipped = sum(w.tasks_shipped for w in m.workers)
        assert stolen == shipped == m.tasks_stolen_total > 0
        assert sum(w.work_stolen for w in m.workers) == sum(
            w.work_shipped for w in m.workers
        )
        grants = sum(w.steal_grants for w in m.workers)
        assert grants == stolen

    def test_static_run_has_zero_steal_counters(self, grid12_pipeline):
        m = _run(grid12_pipeline, "static", "inline").metrics
        assert m.tasks_stolen_total == 0
        assert m.steal_reqs_total == 0
        assert m.steal_bytes_total == 0


class TestTraceConformance:
    def test_fault_free_dynamic_trace_validates(self, grid12_pipeline):
        """Replay reconciles a dynamic trace exactly: steal spans,
        migrated tasks, and the steal counters all line up with the
        runtime metrics and the static models."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = _run(grid12_pipeline, "dynamic", "inline", trace=True)
        rep = validate_trace(
            res.trace, metrics=res.metrics, tg=tg,
            owners=res.owners, strict=True,
        )
        assert rep.ok

    def test_replay_migration_counts_match_metrics(self, throttle_pipeline):
        plan = FaultPlan.scenario("slow", rank=0, slow_s=0.005, seed=3)
        res = _run(
            throttle_pipeline, "dynamic", "inline", trace=True,
            fault_plan=plan,
        )
        rep = replay_trace(res.trace)
        m = res.metrics
        assert rep.tasks_stolen_total
        for r, w in enumerate(m.workers):
            assert rep.workers[r].tasks_stolen == w.tasks_stolen
            assert rep.workers[r].tasks_shipped == w.tasks_shipped
            assert rep.workers[r].work_stolen == w.work_stolen
            assert rep.workers[r].work_shipped == w.work_shipped
        # Folding the migration back out conserves total work.
        assert rep.owner_work.sum() == rep.work.sum()


class TestRecovery:
    def test_crash_recovers_under_dynamic(self, grid12_pipeline):
        """A worker crash with schedule="dynamic" still recovers to the
        sequential factor — stealing defers to the recovery machinery."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash", rank=1, after_tasks=3)
        res = facade_job(sf.A, nprocs=4, mapping="DW/CY", fault_plan=plan,
                         max_restarts=2, schedule="dynamic")
        rep = res.failure_report
        assert rep.ok or rep.degraded
        seq = BlockCholesky(bs, sf.A).factor().to_csc()
        assert abs(res.to_csc() - seq).max() < 1e-8

    def test_single_worker_degrades_to_static(self, grid12_pipeline):
        """P=1 has no peers to steal from; the dynamic flag must be a
        clean no-op."""
        res = _run(grid12_pipeline, "dynamic", "inline", nprocs=1)
        m = res.metrics
        assert m.tasks_stolen_total == 0
        assert m.steal_reqs_total == 0


class TestPoolRestart:
    def test_hard_kill_recovers_at_full_width_bitwise(self, grid12_pipeline):
        """A killed worker's crew is restarted at its configured width:
        the job it broke and the next one factor bitwise identically."""
        import os
        import signal

        from repro.matrices import grid2d_matrix
        from repro.service import FactorService

        A = grid2d_matrix(12).A.tocsc()
        svc = FactorService(nprocs=2, block_size=8, transport="inline")
        svc.start()
        try:
            ref = svc.factor(A).L
            os.kill(svc.pool._procs[1].pid, signal.SIGKILL)
            rerun = svc.factor(A)  # restarts the crew mid-job
            assert rerun.record.outcome == "recovered"
            assert _bitwise(rerun.L, ref)
            assert (svc.pool.nprocs, svc.pool.generation) == (2, 2)
            after = svc.factor(A)  # the next job runs on the new crew
            assert after.record.outcome == "clean"
            assert _bitwise(after.L, ref)
            assert svc.pool.generation == 2
            assert svc.health()["status"] == "ok"
        finally:
            svc.close()
