"""End-to-end fault tolerance: every fault class must end in a correct
factor — from a clean run, recovered by re-running the job from scratch,
or degraded to the sequential backend with a populated FailureReport.
Never a hang, an orphan process, or a silent wrong answer."""

import functools
import multiprocessing as mp

import numpy as np
import pytest

from repro.analysis.comm_volume import communication_volume
from repro.analysis.trace_replay import validate_trace
from repro.numeric import BlockCholesky
from repro.runtime import (
    DeadWorkerError,
    FanoutError,
    FaultPlan,
    RuntimeTimeoutError,
    WorkerError,
    plan_owners,
    run_mp_fanout,
    validate_runtime,
)
from tests.conftest import facade_job, mp_fanout

#: Tight-but-safe watchdogs for the tiny test problems.
FAST = dict(timeout_s=120.0)


def _no_orphans():
    for p in mp.active_children():
        p.join(timeout=5)
    return all(not p.is_alive() for p in mp.active_children())


def _bitwise(L, ref):
    return all(
        np.array_equal(getattr(L, a), getattr(ref, a))
        for a in ("indptr", "indices", "data")
    )


def _seq_factor(grid12_pipeline):
    _, sf, _, bs, _, _ = grid12_pipeline
    return BlockCholesky(bs, sf.A).factor().to_csc()


@pytest.fixture(scope="module")
def fault_free(grid12_pipeline):
    """The fault-free façade factor at ``(nprocs, schedule)``, computed
    once per pair: the bitwise reference of a run that finished on that
    crew."""
    A = grid12_pipeline[1].A
    return functools.cache(lambda nprocs, schedule: facade_job(
        A, nprocs=nprocs, mapping="DW/CY", schedule=schedule, **FAST,
    ).to_csc())


class TestEveryFaultClassRecovers:
    """For every fault class at P in {2, 4}, under both schedules, the run
    either finishes — its factor bit for bit the fault-free one at the
    configured width — or degrades to the sequential factor, with the
    outcome on record. No failed attempt waits on the stall watchdog, and
    the attempt a finished job reports is an ordinary run."""

    @pytest.mark.parametrize("scenario, nprocs, schedule", [
        # a static case is named without its schedule
        pytest.param(scenario, nprocs, schedule, id=f"{scenario}-{nprocs}"
                     + ("" if schedule == "static" else f"-{schedule}"))
        for schedule in ("static", "dynamic")
        for scenario in ("crash", "crash-hard", "drop", "corrupt",
                         "corrupt_header", "duplicate", "delay", "slow")
        for nprocs in (2, 4)
    ])
    def test_recovers_to_correct_factor(
        self, grid12_pipeline, fault_free, scenario, nprocs, schedule
    ):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario(
            scenario, seed=3, rate=0.2, rank=min(1, nprocs - 1)
        )
        res = facade_job(sf.A, nprocs=nprocs, mapping="DW/CY",
                         schedule=schedule, fault_plan=plan, trace=True,
                         **FAST)
        rep = res.failure_report
        assert rep is not None and (rep.ok or rep.degraded)
        ref = (
            _seq_factor(grid12_pipeline) if rep.degraded
            else fault_free(nprocs, schedule)
        )
        assert _bitwise(res.to_csc(), ref)
        assert _no_orphans()
        assert all(a.wall_s < 5.0 for a in rep.attempts), rep.summary()
        if rep.ok:
            # Clean or re-run, an ordinary run: the predicted messages,
            # bytes and per-rank work, replayed exactly by its trace.
            assert res.metrics.nprocs == nprocs
            validate_runtime(bs, sf.A, tg, result=res, problem="grid12")
            validate_trace(res.trace, res.metrics, tg, res.owners,
                           strict=True)


class TestFaultFreeOverhead:
    def test_recovery_mode_is_inert_without_faults(self, grid12_pipeline):
        """A healthy interconnect: no fault and the exact message/byte
        counts the static predictor promised."""
        _, sf, _, bs, _, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=4, mapping="DW/CY")
        m = res.metrics
        predicted = communication_volume(tg, res.owners)
        assert m.messages_total == predicted.messages
        assert m.bytes_total == predicted.bytes
        assert m.faults_injected_total == {}
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-10

    def test_empty_fault_plan_reports_clean(self, grid12_pipeline):
        _, sf, _, bs, _, tg = grid12_pipeline
        res = facade_job(sf.A, nprocs=2, mapping="cyclic",
                         fault_plan=FaultPlan.scenario("none"), **FAST)
        rep = res.failure_report
        assert rep.outcome == "clean"
        assert rep.restarts == 0
        assert rep.faults_injected == {}

    def test_validate_runtime_rejects_unexplained_recovery(
        self, grid12_pipeline, fault_free
    ):
        """No result needs excusing: with every block frame duplicated,
        attempt 0 fails and the re-run is an ordinary run that validates
        strictly. Traffic the model does not explain — here one extra
        frame sent — fails validation; there is no flag to relax it."""
        _, sf, _, bs, _, tg = grid12_pipeline
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY",
                         fault_plan=FaultPlan(duplicate=1.0), **FAST)
        assert res.failure_report.outcome == "recovered"
        assert _bitwise(res.to_csc(), fault_free(2, "static"))
        assert validate_runtime(bs, sf.A, tg, result=res).ok
        res.metrics.workers[0].messages_sent += 1
        rep = validate_runtime(
            bs, sf.A, tg, result=res, strict=False, problem="grid12"
        )
        assert any("messages" in f for f in rep.failures)


class TestCrashRestart:
    def test_transient_crash_restarts_on_fewer_workers(
        self, grid12_pipeline
    ):
        """No longer on fewer workers: a rank that raised poisoned only
        its job, so the crew keeps it and the retry runs on all four."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash", seed=0, after_tasks=3)
        res = facade_job(sf.A, nprocs=4, mapping="DW/CY", fault_plan=plan,
                         **FAST)
        rep = res.failure_report
        assert rep.outcome == "recovered"
        assert rep.restarts == 1
        assert res.metrics.nprocs == 4
        assert len(rep.attempts) == 1
        assert rep.attempts[0].failed_ranks == [1]
        assert "injected failure" in rep.attempts[0].error
        # The re-run started from scratch: every task ran in it.
        assert res.metrics.tasks_total == tg.ntasks
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8
        assert "recovered" in rep.summary()

    def test_persistent_crash_degrades_to_sequential(self, grid12_pipeline):
        """max_restarts exhausted -> the sequential fallback, clearly
        labelled, still numerically correct."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash-persistent", seed=0)
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         max_restarts=0, **FAST)
        rep = res.failure_report
        assert rep.degraded and not rep.ok
        assert rep.outcome == "degraded_sequential"
        assert res.metrics.nprocs == 1
        assert res.metrics.mapping == "sequential-fallback"
        assert res.meta.get("fallback") is True
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-10
        assert _no_orphans()

    def test_no_fallback_reraises_with_report(self, grid12_pipeline):
        """``run_mp_fanout``, the one caller without the fallback."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash-persistent", seed=0)
        with pytest.raises(FanoutError) as info:
            mp_fanout(bs, sf.A, tg, nprocs=2, mapping="DW/CY",
                      fault_plan=plan, **FAST)
        rep = info.value.failure_report
        assert rep.outcome == "degraded_sequential"
        assert len(rep.attempts) == 1
        assert _no_orphans()

    def test_report_serializes(self, grid12_pipeline):
        import json

        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash", seed=0)
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         **FAST)
        payload = json.loads(res.failure_report.to_json())
        assert payload["outcome"] == "recovered"
        assert payload["attempts"][0]["failed_ranks"] == [1]


class TestFailureAttribution:
    """Only the rank that crashed is failed. Its peer merely stopped, so
    it is never shed with a dead rank — every time, however the
    survivor's teardown races the crash."""

    @pytest.mark.parametrize("scenario", ["crash", "crash-hard"])
    def test_peer_of_a_crashed_rank_is_never_failed(
        self, grid12_pipeline, scenario
    ):
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        plan = FaultPlan.scenario(scenario, seed=0)
        for _ in range(20):
            with pytest.raises(FanoutError) as info:
                run_mp_fanout(
                    bs, sf.A, tg, owners, 2, mapping=name,
                    fault_plan=plan, **FAST,
                )
            exc = info.value
            assert exc.failed_ranks == [1]
            # The survivor reports home as aborted, not as a casualty. (A
            # hard kill can take the survivor's inbox lock to the grave;
            # it then never reports, and is still not a casualty.)
            if scenario == "crash" or 0 in exc.results:
                assert exc.results[0].metrics.aborted
                assert exc.results[0].metrics.error is None
        assert _no_orphans()


class TestInRunRecovery:
    """What a fault does inside the attempt it hits: a duplicate or a
    corrupt frame fails the attempt with its typed error."""

    def test_duplicate_frame_aborts_and_the_job_reruns(
        self, grid12_pipeline, fault_free
    ):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan(duplicate=1.0)
        res = facade_job(sf.A, nprocs=4, mapping="DW/CY", fault_plan=plan,
                         **FAST)
        rep = res.failure_report
        assert (rep.outcome, rep.restarts) == ("recovered", 1)
        assert "WireError" in rep.attempts[0].error
        assert "arrived again from rank" in rep.attempts[0].error
        # The re-run saw no fault: bitwise the fault-free factor.
        assert res.metrics.faults_injected_total == {}
        assert _bitwise(res.to_csc(), fault_free(4, "static"))
        validate_runtime(bs, sf.A, tg, result=res, problem="grid12")

    def test_corrupt_frames_abort_and_the_job_reruns(
        self, grid12_pipeline
    ):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("corrupt", seed=3, rate=0.3)
        res = facade_job(sf.A, nprocs=4, mapping="DW/CY", fault_plan=plan,
                         **FAST)
        rep = res.failure_report
        assert (rep.outcome, rep.restarts, res.metrics.nprocs) == (
            "recovered", 1, 4)
        assert "CorruptFrameError" in rep.attempts[0].error
        # The re-run saw no fault.
        assert res.metrics.faults_injected_total == {}
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8

    def test_corrupt_frame_without_recovery_aborts(self, grid12_pipeline):
        """``run_mp_fanout`` makes one attempt: integrity failures are
        fail-stop, typed, and leak no orphan processes."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("corrupt", seed=3, rate=0.5)
        with pytest.raises(WorkerError, match="CorruptFrameError") as info:
            run_mp_fanout(
                bs, sf.A, tg,
                plan_owners(tg.workmodel, tg, 2, "DW/CY")[0], 2,
                fault_plan=plan, timeout_s=60,
            )
        exc = info.value
        assert exc.results[exc.rank].metrics.error_type == "CorruptFrameError"
        assert _no_orphans()

    def test_slow_worker_skews_measured_balance(self, grid12_pipeline):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("slow", seed=0, rank=1, slow_s=0.003)
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         **FAST)
        m = res.metrics
        assert m.faults_injected_total.get("slow", 0) > 0
        workers = {w.rank: w for w in m.workers}
        assert workers[1].busy_s > workers[0].busy_s
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8


class TestDriverWatchdogs:
    def test_global_timeout_raises_timeout_error(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan.scenario("slow", seed=0, rank=0, slow_s=0.25)
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        with pytest.raises(RuntimeTimeoutError):
            run_mp_fanout(
                bs, sf.A, tg, owners, 2, mapping=name,
                fault_plan=plan, timeout_s=1.0,
            )
        assert _no_orphans()

    def test_dead_worker_raises_dead_worker_error(self, grid12_pipeline):
        """The crew a dead process broke is replaced before the job's
        error is typed; the error still says a worker died, and the report
        keeps the width the attempt ran on."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash-hard", seed=0)
        with pytest.raises(DeadWorkerError) as info:
            mp_fanout(bs, sf.A, tg, nprocs=2, mapping="DW/CY",
                      fault_plan=plan, **FAST)
        assert info.value.failed_ranks == [1]
        assert info.value.failure_report.attempts[0].nprocs == 2
        assert _no_orphans()


class TestSolverFacade:
    def test_fault_plan_via_solver(self):
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        A = grid2d_matrix(12).A
        plan = FaultPlan.scenario("drop", seed=1, rate=0.2)
        chol = SparseCholesky(
            A, block_size=8, backend="mp", nprocs=2, mapping="DW/CY",
            fault_plan=plan,
        ).factor()
        assert chol.failure_report is not None
        assert chol.failure_report.ok
        assert abs(chol.L @ chol.L.T - chol.symbolic.A).max() < 1e-8
        b = np.ones(A.shape[0])
        assert np.max(np.abs(A @ chol.solve(b) - b)) < 1e-8

    @pytest.mark.parametrize("scenario", ["drop", "crash", "crash-hard"])
    def test_unfactored_solve_under_a_fault_plan(self, scenario):
        """solve() before factor() is the combined factor + solve run with
        or without a plan, and its answer is the fault-free one, bit for
        bit."""
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        A = grid2d_matrix(12).A
        b = np.random.default_rng(3).standard_normal((A.shape[0], 2))
        kw = dict(block_size=8, backend="mp", nprocs=2, mapping="DW/CY")
        with SparseCholesky(A, **kw) as clean:
            want = clean.solve(b)
        plan = FaultPlan.scenario(scenario, seed=1, rate=0.2)
        with SparseCholesky(A, fault_plan=plan, **kw) as chol:
            x = chol.solve(b)
            assert chol.failure_report is not None
            assert chol.failure_report.ok
        assert np.array_equal(x, want)
        assert _no_orphans()

    @pytest.mark.parametrize(
        "plan", ['{"drop": 0.2}', {"drop": 0.2}, 123],
        ids=["str", "dict", "int"],
    )
    def test_fault_plan_must_be_a_fault_plan(self, plan):
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        with pytest.raises(TypeError, match="FaultPlan"):
            SparseCholesky(
                grid2d_matrix(12).A, block_size=8, backend="mp", nprocs=2,
                fault_plan=plan,
            )

    def test_no_fault_plan_still_reports_clean(self):
        """Every ``mp`` factor keeps its job's report, so a run that fell
        back to the sequential factor without a plan would show too."""
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        with SparseCholesky(
            grid2d_matrix(12).A, block_size=8, backend="mp", nprocs=2
        ) as chol:
            chol.factor()
        rep = chol.failure_report
        assert (rep.outcome, rep.restarts, rep.attempts) == ("clean", 0, [])
