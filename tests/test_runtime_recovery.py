"""End-to-end fault tolerance: every fault class must end in a correct
factor — recovered in-run, recovered by restart, or degraded to the
sequential backend with a populated FailureReport. Never a hang, an
orphan process, or a silent wrong answer."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.analysis.comm_volume import communication_volume
from repro.numeric import BlockCholesky
from repro.runtime import (
    FanoutError,
    FaultPlan,
    RuntimeTimeoutError,
    WorkerError,
    mp_block_cholesky,
    plan_owners,
    run_mp_fanout,
    run_with_recovery,
    validate_runtime,
)
from repro.runtime import wire

#: Tight-but-safe recovery knobs for the tiny test problems.
FAST = dict(
    renegotiate_base_s=0.05,
    renegotiate_cap_s=0.5,
    max_renegotiations=6,
    timeout_s=120.0,
    stall_timeout_s=15.0,
)


def _no_orphans():
    for p in mp.active_children():
        p.join(timeout=5)
    return all(not p.is_alive() for p in mp.active_children())


def _seq_factor(grid12_pipeline):
    _, sf, _, bs, _, _ = grid12_pipeline
    return BlockCholesky(bs, sf.A).factor().to_csc()


class TestEveryFaultClassRecovers:
    """The ISSUE's acceptance bar: for every fault class at P in {2, 4},
    the run either recovers (factor matches the sequential backend) or
    degrades to sequential — with the outcome on record."""

    @pytest.mark.parametrize("nprocs", [2, 4])
    @pytest.mark.parametrize(
        "scenario",
        ["crash", "crash-hard", "drop", "corrupt", "corrupt_header",
         "duplicate", "delay", "slow"],
    )
    def test_recovers_to_correct_factor(
        self, grid12_pipeline, scenario, nprocs
    ):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario(
            scenario, seed=3, rate=0.2, rank=min(1, nprocs - 1)
        )
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=nprocs, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
        rep = res.failure_report
        assert rep is not None and (rep.ok or rep.degraded)
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8
        assert _no_orphans()
        # The validation harness agrees, with accounting checks relaxed.
        validate_runtime(
            bs, sf.A, tg, result=res, faulty=True, problem="grid12"
        )


class TestFaultFreeOverhead:
    def test_recovery_mode_is_inert_without_faults(self, grid12_pipeline):
        """recovery=True on a healthy interconnect: zero recovery events
        and the exact message/byte counts the static predictor promised."""
        _, sf, _, bs, _, tg = grid12_pipeline
        res = mp_block_cholesky(
            bs, sf.A, tg, nprocs=4, mapping="DW/CY", recovery=True
        )
        m = res.metrics
        predicted = communication_volume(tg, res.owners)
        assert m.messages_total == predicted.messages
        assert m.bytes_total == predicted.bytes
        assert m.recovery_events_total == 0
        assert m.retransmits_total == 0
        assert m.duplicates_total == 0
        assert m.frames_rejected_total == 0
        assert m.faults_injected_total == {}
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-10

    def test_empty_fault_plan_reports_clean(self, grid12_pipeline):
        _, sf, _, bs, _, tg = grid12_pipeline
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="cyclic",
            fault_plan=FaultPlan.scenario("none"), **FAST,
        )
        rep = res.failure_report
        assert rep.outcome == "clean"
        assert rep.restarts == 0
        assert rep.recovery_events == 0
        assert rep.faults_injected == {}

    def test_validate_runtime_rejects_unexplained_recovery(
        self, grid12_pipeline
    ):
        """A run that *did* trigger recovery events must fail strict
        (non-faulty) validation — recovery on a healthy fabric is a bug."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("duplicate", seed=1, rate=0.3)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
        if res.metrics.recovery_events_total == 0:
            pytest.skip("no duplicates materialized at this seed")
        rep = validate_runtime(
            bs, sf.A, tg, result=res, strict=False, problem="grid12"
        )
        assert any("recovery" in f for f in rep.failures)


class TestCrashRestart:
    def test_transient_crash_restarts_on_fewer_workers(
        self, grid12_pipeline
    ):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash", seed=0, after_tasks=3)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=4, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
        rep = res.failure_report
        assert rep.outcome == "recovered"
        assert rep.restarts == 1
        assert rep.final_nprocs == 3
        assert res.metrics.nprocs == 3
        assert len(rep.attempts) == 1
        assert rep.attempts[0].failed_ranks == [1]
        assert "injected failure" in rep.attempts[0].error
        # The failed attempt's completed work was salvaged and reused.
        assert rep.checkpoint_blocks_used > 0
        assert (
            sum(w.checkpoint_blocks_loaded for w in res.metrics.workers) > 0
        )
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8
        assert "recovered" in rep.summary()

    def test_persistent_crash_degrades_to_sequential(self, grid12_pipeline):
        """max_restarts exhausted -> the sequential fallback, clearly
        labelled, still numerically correct."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash-persistent", seed=0)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY",
            fault_plan=plan, max_restarts=0, **FAST,
        )
        rep = res.failure_report
        assert rep.degraded and not rep.ok
        assert rep.outcome == "degraded_sequential"
        assert rep.final_nprocs == 1
        assert res.metrics.mapping == "sequential-fallback"
        assert res.meta.get("fallback") is True
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-10
        assert _no_orphans()

    def test_no_fallback_reraises_with_report(self, grid12_pipeline):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash-persistent", seed=0)
        with pytest.raises(FanoutError) as info:
            run_with_recovery(
                bs, sf.A, tg, nprocs=2, mapping="DW/CY",
                fault_plan=plan, max_restarts=0,
                fallback_sequential=False, **FAST,
            )
        rep = info.value.failure_report
        assert rep.outcome == "degraded_sequential"
        assert len(rep.attempts) == 1
        assert _no_orphans()

    def test_report_serializes(self, grid12_pipeline):
        import json

        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("crash", seed=0)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
        payload = json.loads(res.failure_report.to_json())
        assert payload["outcome"] == "recovered"
        assert payload["attempts"][0]["failed_ranks"] == [1]


class TestFailureAttribution:
    """Only the rank that crashed is failed. Its peer merely stopped, so
    the restart runs on P - 1 workers and keeps the peer's checkpoint —
    every time, however the survivor's teardown races the crash."""

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
                    fault_plan=plan, recovery=True, **FAST,
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
    def test_duplicates_are_suppressed_idempotently(self, grid12_pipeline):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("duplicate", seed=2, rate=0.5)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=4, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
        m = res.metrics
        injected = m.faults_injected_total.get("duplicate", 0)
        assert injected > 0
        # Every injected duplicate arrived and was dropped, none applied.
        # A retransmit of a block that meanwhile arrived lands in the same
        # counter, and can itself be duplicated after its receiver left.
        assert abs(m.duplicates_total - injected) <= m.retransmits_total
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8

    def test_corrupt_frames_rejected_nacked_retransmitted(
        self, grid12_pipeline
    ):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("corrupt", seed=3, rate=0.3)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=4, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
        m = res.metrics
        assert m.faults_injected_total.get("corrupt", 0) > 0
        assert m.frames_rejected_total > 0
        assert sum(w.nacks_sent for w in m.workers) > 0
        assert m.retransmits_total > 0
        seq = _seq_factor(grid12_pipeline)
        assert abs(res.to_csc() - seq).max() < 1e-8

    def test_corrupt_frame_without_recovery_aborts(self, grid12_pipeline):
        """No recovery enabled: integrity failures are fail-stop, typed,
        and leak no orphan processes."""
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("corrupt", seed=3, rate=0.5)
        with pytest.raises(WorkerError, match="corrupt frame"):
            run_mp_fanout(
                bs, sf.A, tg,
                plan_owners(tg.workmodel, tg, 2, "DW/CY")[0], 2,
                fault_plan=plan, recovery=False,
                stall_timeout_s=10, timeout_s=60,
            )
        assert _no_orphans()

    def test_checkpoint_preload_skips_tasks(self, grid12_pipeline):
        """Feeding a checkpoint of final blocks into a fresh run: they are
        loaded, their tasks skipped, and the factor still exact."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        seq = BlockCholesky(bs, sf.A).factor()
        checkpoint = {}
        for b in range(min(4, tg.nblocks)):
            I, J = int(tg.block_I[b]), int(tg.block_J[b])
            arr = seq.diag[J] if I == J else seq.below[J][I]
            checkpoint[b] = wire.pack_block(0, b, I, J, arr)
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        res = run_mp_fanout(
            bs, sf.A, tg, owners, 2, mapping=name,
            recovery=True, checkpoint=checkpoint,
        )
        loaded = sum(
            w.checkpoint_blocks_loaded for w in res.metrics.workers
        )
        assert loaded == 2 * len(checkpoint)  # each worker preloads all
        assert res.metrics.tasks_total < tg.ntasks  # tasks were skipped
        assert res.meta["checkpoint_blocks"] == len(checkpoint)
        assert abs(res.to_csc() - seq.to_csc()).max() < 1e-10

    def test_slow_worker_skews_measured_balance(self, grid12_pipeline):
        _, sf, _, bs, _, tg = grid12_pipeline
        plan = FaultPlan.scenario("slow", seed=0, rank=1, slow_s=0.003)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY",
            fault_plan=plan, **FAST,
        )
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
                fault_plan=plan, recovery=True,
                timeout_s=1.0, stall_timeout_s=30.0,
            )
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

    def test_no_fault_plan_means_no_report(self):
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        chol = SparseCholesky(
            grid2d_matrix(12).A, block_size=8, backend="mp", nprocs=2
        ).factor()
        assert chol.failure_report is None
        assert chol.runtime_metrics.recovery_events_total == 0


class TestChaosCLI:
    def test_chaos_sweep_passes(self, capsys):
        from repro.cli import main

        rc = main([
            "chaos", "GRID150", "--scale", "small", "-p", "2",
            "--faults", "none,drop,crash", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos sweep" in out
        assert "3/3 scenarios ok" in out
        assert "[ok]" in out and "FAILED" not in out

    def test_chaos_json_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "chaos.json"
        rc = main([
            "chaos", "GRID150", "--scale", "small", "-p", "2",
            "--faults", "none,duplicate", "--seed", "1",
            "--json", str(path),
        ])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"P2:none", "P2:duplicate"}
        assert payload["P2:none"]["report"]["outcome"] == "clean"
        assert payload["P2:none"]["report"]["recovery_events"] == 0
        assert all(r["ok"] for r in payload.values())

    def test_chaos_rejects_unknown_fault(self):
        from repro.cli import main

        with pytest.raises(KeyError, match="gremlins"):
            main([
                "chaos", "GRID150", "--scale", "small",
                "--faults", "gremlins",
            ])
