"""The message-passing runtime end to end: correctness vs the sequential
factorization, communication accounting vs the static predictor, load
distribution vs the work model, and clean shutdown on worker failure."""

import logging
import multiprocessing as mp

import numpy as np
import pytest
from scipy import sparse

from repro.analysis.comm_volume import communication_volume
from repro.mapping.balance import overall_balance_from_owners
from repro.numeric import BlockCholesky
from repro.runtime import (
    WorkerError,
    plan_owners,
    run_mp_fanout,
    validate_runtime,
)
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.runtime.validation import ValidationError
from tests.conftest import facade_job, mp_fanout


def _no_orphans():
    for p in mp.active_children():
        p.join(timeout=5)
    return all(not p.is_alive() for p in mp.active_children())


def _soft_crash(rank, after_tasks):
    """Keywords for: ``rank`` raises after ``after_tasks`` tasks, fail-stop."""
    plan = FaultPlan(crash=(CrashSpec(rank, after_tasks),))
    return dict(fault_plan=plan)


class TestCorrectness:
    @pytest.mark.parametrize("mapping", ["cyclic", "DW/CY"])
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_matches_sequential_factor(self, grid12_pipeline, mapping, nprocs):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=nprocs, mapping=mapping)
        L = res.to_csc()
        seq = BlockCholesky(bs, sf.A).factor().to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10
        assert abs(L - seq).max() < 1e-10
        assert res.metrics.tasks_total == tg.ntasks

    def test_single_worker(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=1, mapping="cyclic")
        assert abs(res.to_csc() @ res.to_csc().T - sf.A).max() < 1e-10
        assert res.metrics.messages_total == 0

    def test_irregular_problem(self, random_spd_pipeline):
        _, sf, _, bs, wm, tg = random_spd_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=4, mapping="ID/CY")
        assert abs(res.to_csc() @ res.to_csc().T - sf.A).max() < 1e-9

    def test_domains_ownership(self, grid12_pipeline):
        """One owner rule: the runtime runs the owners the simulator
        models (§2.3 domains plus the 2-D root map), and the mp façade's
        factor at P = 2 is bitwise sequential with exactly the predicted
        messages."""
        from repro.fanout import assign_domains, block_owners, run_fanout
        from repro.mapping import named_map
        from repro.solver import SparseCholesky

        _, sf, _, bs, wm, tg = grid12_pipeline
        chol = SparseCholesky(sf.A, ordering="natural", block_size=8)
        for P in (2, 4):
            cmap = named_map(wm, P, "DW/CY")
            owners, _ = plan_owners(wm, tg, P, "DW/CY")
            domains = assign_domains(wm, P)
            assert (domains.panel_owner >= 0).any()
            np.testing.assert_array_equal(
                owners, block_owners(tg, cmap, domains))
            simulated = run_fanout(tg, cmap)
            planned = chol.plan_parallel(P, "DW/CY")
            assert planned.meta["messages"] == simulated.comm_messages
            assert planned.balance_bound == overall_balance_from_owners(
                wm, owners, P)

        res = facade_job(sf.A, nprocs=2, mapping="DW/CY")
        seq = BlockCholesky(bs, sf.A).factor().to_csc()
        L = res.to_csc()
        for part in ("indptr", "indices", "data"):
            assert getattr(L, part).tobytes() == getattr(seq, part).tobytes()
        np.testing.assert_array_equal(
            res.owners, plan_owners(wm, tg, 2, "DW/CY")[0])
        assert (res.metrics.messages_total
                == communication_volume(tg, res.owners).messages)

    def test_rejects_bad_arguments(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 4, "cyclic")
        with pytest.raises(ValueError):
            run_mp_fanout(bs, sf.A, tg, owners[:-1], 4)
        with pytest.raises(ValueError):
            run_mp_fanout(bs, sf.A, tg, owners, 0)
        with pytest.raises(ValueError):
            run_mp_fanout(bs, sf.A, tg, owners, 2)  # owner 3 out of range


class TestAccounting:
    @pytest.mark.parametrize("mapping", ["cyclic", "DW/CY"])
    def test_messages_match_comm_volume(self, grid12_pipeline, mapping):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=4, mapping=mapping)
        predicted = communication_volume(tg, res.owners)
        assert res.metrics.messages_total == predicted.messages
        assert res.metrics.bytes_total == predicted.bytes
        # Link matrix carries the same totals, link by link.
        assert res.metrics.link_matrix().sum() == predicted.messages

    def test_work_matches_workmodel(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=4, mapping="DW/CY")
        measured = np.array(
            [w.work_executed for w in res.metrics.workers], dtype=np.int64
        )
        predicted = np.bincount(
            res.owners, weights=wm.work, minlength=4
        ).astype(np.int64)
        np.testing.assert_array_equal(measured, predicted)
        assert res.metrics.work_balance == pytest.approx(
            overall_balance_from_owners(wm, res.owners, 4)
        )

    def test_dw_work_imbalance_not_worse_than_cyclic(self, grid12_pipeline):
        """The paper's claim on real execution: the DW remap's measured
        per-worker work distribution beats (or ties) cyclic."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        runs = {
            m: mp_fanout(bs, sf.A, tg, nprocs=4, mapping=m)
            for m in ("cyclic", "DW/CY")
        }
        assert (
            runs["DW/CY"].metrics.work_imbalance
            <= runs["cyclic"].metrics.work_imbalance
        )

    def test_validation_harness_passes(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=4, mapping="DW/CY")
        rep = validate_runtime(bs, sf.A, tg, res, problem="grid12")
        assert rep.ok
        assert rep.messages_measured == rep.messages_predicted
        assert "OK" in rep.summary()

    def test_validation_harness_checks_the_factor(self, grid12_pipeline):
        """One stored entry of ``L`` moved by 2e-9 keeps the residual
        (4e-9) under its 1e-8 tolerance, but a 1 x 2 grid's factor must
        be the sequential one bit for bit."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=2, mapping="DW/CY")
        assert validate_runtime(bs, sf.A, tg, res).ok
        res.factor.diag[0][1, 0] += 2e-9
        rep = validate_runtime(bs, sf.A, tg, res, strict=False)
        assert rep.residual < 1e-8
        assert rep.failures == [
            f"factor differs from the sequential one by "
            f"{rep.factor_diff:.3e} (allowed 0.000e+00)"
        ]
        with pytest.raises(ValidationError, match="factor differs"):
            validate_runtime(bs, sf.A, tg, res)

    def test_validation_harness_catches_lies(self, grid12_pipeline):
        """Validating a result against ownership it did not run under must
        fail the communication check."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=4, mapping="cyclic")
        other, _ = plan_owners(wm, tg, 4, "DW/CY")
        if communication_volume(tg, other).messages == \
                communication_volume(tg, res.owners).messages:
            pytest.skip("mappings coincide on this tiny problem")
        res.owners = other
        with pytest.raises(ValidationError):
            validate_runtime(bs, sf.A, tg, result=res)
        rep = validate_runtime(bs, sf.A, tg, result=res, strict=False)
        assert not rep.ok and "FAILED" in rep.summary()

    def test_metrics_timelines_recorded(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=2, mapping="cyclic")
        for w in res.metrics.workers:
            assert w.tasks_executed > 0
            assert w.busy_s > 0
        assert res.metrics.wall_s > 0
        # Render and JSON never crash on real data.
        res.metrics.render()
        res.metrics.to_json()


class TestShutdown:
    def test_injected_worker_failure_raises_and_reaps(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        with pytest.raises(WorkerError, match="injected failure"):
            mp_fanout(
                bs, sf.A, tg, nprocs=4, mapping="cyclic",
                **_soft_crash(1, 3), timeout_s=60,
            )
        assert _no_orphans()

    def test_failure_carries_a_one_attempt_report(
        self, grid12_pipeline, caplog
    ):
        """``run_mp_fanout`` is one attempt through the recovery loop with
        no fallback: its typed error carries that attempt's report, and
        nothing is restarted (the conftest guard checks no process or
        segment is left)."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        caplog.set_level(logging.INFO, logger="repro.runtime.recovery")
        with pytest.raises(WorkerError, match="injected failure") as info:
            run_mp_fanout(bs, sf.A, tg, owners, 2, mapping=name,
                          **_soft_crash(1, 3), timeout_s=60)
        rep = info.value.failure_report
        assert rep.outcome == "degraded_sequential"
        assert len(rep.attempts) == 1
        assert rep.attempts[0].nprocs == 2
        assert not [r for r in caplog.records if "restarted" in r.msg]
        assert _no_orphans()

    def test_numeric_failure_propagates_without_hang(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        bad = (sf.A - sparse.eye(sf.A.shape[0]) * 1e6).tocsc()
        with pytest.raises(WorkerError, match="NotPositiveDefiniteError"):
            mp_fanout(
                bs, bad, tg, nprocs=4, mapping="cyclic",
                timeout_s=60,
            )
        assert _no_orphans()

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_a_linalg_error_at_factor(
        self, grid12_pipeline, transport, bad
    ):
        """A NaN/Inf on the diagonal trips no ``info`` in any worker; the
        façade's assembly refuses the factor, as on ``sequential``."""
        from repro.runtime import shm_available
        from repro.solver import SparseCholesky

        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        A = grid12_pipeline[0].A.tocsc(copy=True)
        A[70, 70] = bad
        for kw in (dict(backend="mp", nprocs=2, transport=transport), {}):
            chol = SparseCholesky(A, ordering="nd", block_size=8, **kw)
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                chol.factor()
            with pytest.raises(RuntimeError, match="factor"):
                chol.L  # nothing is kept for a later solve
            assert chol._numeric is None
        assert _no_orphans()

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    @pytest.mark.parametrize("backend", ["sequential", "mp"])
    def test_not_spd_is_the_sequential_linalg_error(
        self, grid12_pipeline, backend, transport
    ):
        """A matrix that is not positive definite is one typed error from
        the façade on every backend: under ``mp`` the rank's
        ``LinAlgError`` is not retried, the job goes to the sequential
        last resort, and the held crew is neither healed nor leaked."""
        from repro.runtime import shm_available
        from repro.solver import SparseCholesky

        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        A = grid12_pipeline[0].A
        bad = (A - sparse.eye(A.shape[0]) * 1e6).tocsc()
        with pytest.raises(np.linalg.LinAlgError) as want:
            SparseCholesky(bad, ordering="nd", block_size=8).factor()
        with SparseCholesky(bad, ordering="nd", block_size=8, nprocs=2,
                            backend=backend, transport=transport) as chol:
            with pytest.raises(np.linalg.LinAlgError) as got:
                chol.factor()
            assert str(got.value) == str(want.value)
            assert "not positive definite" in str(got.value)
            assert chol._numeric is None
            if backend == "mp":
                pool = chol._crew[1]
                assert (pool.generation, pool.nprocs) == (1, 2)
                assert pool.alive
        assert _no_orphans()

    def test_not_spd_names_its_pivot_on_every_backend(self, grid12_pipeline):
        """One pivot that is not positive, inside a panel deep in the
        factor: ``sequential``, ``threads``, ``mp`` and the service raise
        ``NotPositiveDefiniteError`` naming the same panel and global
        column (permuted order); the mp rank's error is not retried."""
        from repro.numeric import NotPositiveDefiniteError
        from repro.numeric.parallel import parallel_block_cholesky
        from repro.service import FactorService, JobFailed
        from repro.solver import SparseCholesky

        _, sf, _, bs, _, tg = grid12_pipeline
        ptr = bs.partition.panel_ptr
        k = bs.npanels - 2
        assert ptr[k + 1] - ptr[k] > 1
        column = int(ptr[k + 1]) - 1  # not the panel's first column
        perm = np.asarray(sf.ordering.perm)
        bad = grid12_pipeline[0].A.tolil(copy=True)
        bad[perm[column], perm[column]] = -1.0
        bad = bad.tocsc()
        kw = dict(ordering=perm, block_size=8)

        def located(raising):
            with pytest.raises(NotPositiveDefiniteError) as info:
                raising()
            assert (info.value.panel, info.value.column) == (k, column)
            assert f"column {column} " in str(info.value)
            return info.value

        located(lambda: SparseCholesky(bad, **kw).factor())
        A_perm = bad[perm][:, perm].tocsc()
        located(lambda: parallel_block_cholesky(bs, A_perm, tg, nthreads=2))
        with SparseCholesky(bad, nprocs=2, backend="mp", **kw) as chol:
            located(chol.factor)
        with pytest.raises(WorkerError,
                           match=f"NotPositiveDefiniteError: .* column {column} "):
            run_mp_fanout(bs, A_perm, tg, plan_owners(
                tg.workmodel, tg, 2, "DW/CY")[0], 2, mapping="DW/CY")
        with FactorService(nprocs=2, ordering=perm, block_size=8) as svc:
            with pytest.raises(JobFailed, match="not positive definite") as job:
                svc.factor(bad)
        cause = job.value.__cause__
        assert isinstance(cause, NotPositiveDefiniteError)
        assert (cause.panel, cause.column) == (k, column)
        assert _no_orphans()

    def test_success_leaves_no_orphans(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        mp_fanout(bs, sf.A, tg, nprocs=2, mapping="cyclic")
        assert _no_orphans()

    def test_worker_error_ships_remote_traceback(self, grid12_pipeline):
        """The driver's exception carries the failing worker's full remote
        traceback, its rank, and the original error text — enough to debug
        without attaching to a child process."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        with pytest.raises(WorkerError) as info:
            mp_fanout(
                bs, sf.A, tg, nprocs=4, mapping="cyclic",
                **_soft_crash(2, 3), timeout_s=60,
            )
        exc = info.value
        text = str(exc)
        assert "Traceback (most recent call last)" in text
        assert "injected failure on worker 2" in text
        assert exc.rank == 2
        assert exc.failed_ranks == [2]
        assert _no_orphans()

    def test_abort_fans_out_to_all_peers(self, grid12_pipeline):
        """One failing worker ABORTs the others: every surviving rank
        still reports home (results salvaged on the exception) and at
        least one of them saw the ABORT control frame."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        with pytest.raises(WorkerError) as info:
            mp_fanout(
                bs, sf.A, tg, nprocs=4, mapping="cyclic",
                **_soft_crash(1, 3), timeout_s=60,
            )
        exc = info.value
        assert set(exc.results) == {0, 1, 2, 3}
        survivors = [r for rank, r in exc.results.items() if rank != 1]
        assert any(
            r.metrics.aborted or r.metrics.tasks_executed
            for r in survivors
        )
        assert exc.results[1].metrics.error is not None
        assert _no_orphans()


class TestSolverBackends:
    @pytest.mark.parametrize("mapping", ["cyclic", "DW/CY"])
    def test_mp_backend(self, mapping):
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        A = grid2d_matrix(12).A
        chol = SparseCholesky(
            A, block_size=8, backend="mp", nprocs=4, mapping=mapping
        ).factor()
        assert abs(chol.L @ chol.L.T - chol.symbolic.A).max() < 1e-10
        assert chol.runtime_metrics is not None
        assert chol.runtime_metrics.nprocs == 4
        b = np.ones(A.shape[0])
        assert np.max(np.abs(A @ chol.solve(b) - b)) < 1e-8

    def test_threads_backend(self):
        """The shared-memory yardstick is no façade backend any more:
        it is called directly on the façade's analysis."""
        from repro.matrices import grid2d_matrix
        from repro.numeric.parallel import parallel_block_cholesky
        from repro.solver import SparseCholesky

        chol = SparseCholesky(grid2d_matrix(12).A, block_size=8)
        with pytest.raises(KeyError):
            SparseCholesky(chol.A, backend="threads")
        L = parallel_block_cholesky(
            chol.structure, chol.symbolic.A, chol.taskgraph, nthreads=2
        ).factor.to_csc()
        assert abs(L @ L.T - chol.symbolic.A).max() < 1e-10

    def test_unknown_backend_rejected(self):
        from repro.matrices import grid2d_matrix
        from repro.solver import SparseCholesky

        with pytest.raises(KeyError):
            SparseCholesky(grid2d_matrix(8).A, backend="mpi")
