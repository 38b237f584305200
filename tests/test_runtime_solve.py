"""Conformance suite for the distributed triangular solve.

The distributed forward/backward substitution
(:mod:`repro.runtime.worker`'s solve phase) must be *bitwise* identical
to the substitution at the same grouping for every cell of the
conformance matrix — transports (inline, shm), schedules (static,
dynamic), P in {1, 2, 4} with 1/4/16 right-hand sides, and P in {3, 5, 6}
— including a problem with a non-power-of-two panel count. Where every
block column has one owner (a ``1 x P`` grid: P = 1, 2, 3, 5) that is the
sequential ``block_solve_permuted``; at P = 4 and 6 (two grid rows) it is
``oracle_grouped_solve`` over ``oracle_grouped_factor``, which agrees with
sequential to rounding. On shm the factor never leaves the arena's store:
every factor frame on the wire is exactly a 64-byte descriptor, and only
RHS fragments carry payload.
"""

import multiprocessing as mp
import queue

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.comm_volume import solve_communication_volume
from repro.fanout.dispatch import DispatchPlan
from repro.mapping import best_grid
from repro.matrices import random_spd_sparse
from repro.numeric import BlockCholesky
from repro.numeric.solve import (
    block_solve_permuted, fsolve_kernel, fupd_kernel, solve_with_factor,
)
from repro.runtime import plan_owners, shm_available
from repro.runtime.solve_plan import SolvePlan
from repro.runtime.engine import run_mp_fanout
from repro.runtime.wire import HEADER_BYTES
from tests.blockfact_oracle import oracle_grouped_factor, oracle_grouped_solve
from tests.conftest import mp_fanout

P_SWEEP = (1, 2, 4)
NRHS_SWEEP = (1, 4, 16)
#: Worker counts whose DW/CY grid has two rows.
TWO_ROWS = (4, 6)


def _rhs(n: int, nrhs: int) -> np.ndarray:
    rng = np.random.default_rng(1234 + nrhs)
    return rng.standard_normal((n, nrhs))


@pytest.fixture(scope="module")
def grid_ref(grid12_pipeline):
    """Sequential factor + permuted-system solve references (grid12),
    and the grouped ones of the two-row grids."""
    _, sf, _, bs, wm, tg = grid12_pipeline
    chol = BlockCholesky(bs, sf.A).factor()
    refs = {
        nrhs: block_solve_permuted(chol, _rhs(sf.A.shape[0], nrhs))
        for nrhs in NRHS_SWEEP
    }
    grouped = {}
    for nprocs in TWO_ROWS:
        owners, _ = plan_owners(wm, tg, nprocs, "DW/CY")
        diag, below = oracle_grouped_factor(bs, sf.A, owners)
        for nrhs in NRHS_SWEEP:
            grouped[nprocs, nrhs] = oracle_grouped_solve(
                bs, diag, below, owners, _rhs(sf.A.shape[0], nrhs)
            )
    return {"sf": sf, "bs": bs, "wm": wm, "tg": tg, "refs": refs,
            "grouped": grouped}


def _want(ref, nprocs, nrhs):
    """The solution a run at ``nprocs`` must reproduce bit for bit."""
    if nprocs in TWO_ROWS:
        return ref["grouped"][nprocs, nrhs]
    return ref["refs"][nrhs]


def _run(ref, nrhs, nprocs, transport, schedule):
    sf, bs, tg = ref["sf"], ref["bs"], ref["tg"]
    return mp_fanout(
        bs, sf.A, tg, nprocs=nprocs, mapping="DW/CY",
        transport=transport, schedule=schedule,
        rhs=_rhs(sf.A.shape[0], nrhs),
    )


class TestBitwiseMatrix:
    """Every (transport, schedule, P, nrhs) cell pins bitwise: ``1 x P``
    cells to the sequential sweeps, two-row grids to the grouped oracle
    (and to sequential to rounding)."""

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    @pytest.mark.parametrize("nprocs", P_SWEEP)
    @pytest.mark.parametrize("nrhs", NRHS_SWEEP)
    def test_cell(self, grid_ref, transport, schedule, nprocs, nrhs):
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory on this platform")
        res = _run(grid_ref, nrhs, nprocs, transport, schedule)
        assert res.solution is not None
        assert res.solution.shape == (grid_ref["sf"].A.shape[0], nrhs)
        assert np.array_equal(res.solution, _want(grid_ref, nprocs, nrhs))
        assert np.allclose(res.solution, grid_ref["refs"][nrhs],
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    @pytest.mark.parametrize("nprocs", [3, 5, 6])
    def test_more_grids(self, grid_ref, transport, schedule, nprocs):
        """P = 3 and 5 are ``1 x P`` grids, P = 6 is ``2 x 3``."""
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory on this platform")
        res = _run(grid_ref, 4, nprocs, transport, schedule)
        assert np.array_equal(res.solution, _want(grid_ref, nprocs, 4))


class TestNonPowerOfTwoPanels:
    """RAND150 (mmd, B=6, 25 panels) pins bitwise too — uneven panel
    counts exercise the cyclic wrap of the owner map in both sweeps."""

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_bitwise(self, random_spd_pipeline, schedule):
        _, sf, _, bs, wm, tg = random_spd_pipeline
        npanels = tg.npanels
        assert npanels & (npanels - 1) != 0  # genuinely non-power-of-two
        b = _rhs(sf.A.shape[0], 4)
        ref = block_solve_permuted(BlockCholesky(bs, sf.A).factor(), b)
        res = mp_fanout(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY",
            schedule=schedule, rhs=b,
        )
        assert np.array_equal(res.solution, ref)


class TestSolveWire:
    def test_shm_ships_no_factor_payload(self, grid_ref):
        """On shm, factor frames are pure 64-byte descriptors; all
        payload bytes on the wire belong to the solve plane."""
        if not shm_available():
            pytest.skip("no POSIX shared memory on this platform")
        res = _run(grid_ref, 4, 2, "shm", "static")
        for w in res.metrics.workers:
            assert w.wire_bytes_sent == HEADER_BYTES * w.messages_sent
            assert w.wire_bytes_received == (
                HEADER_BYTES * w.messages_received
            )
        assert res.metrics.solve_bytes_total > 0

    @pytest.mark.parametrize("nprocs", P_SWEEP)
    @pytest.mark.parametrize("nrhs", [1, 4])
    def test_ledger_matches_predictor(self, grid_ref, nprocs, nrhs):
        """Measured solve messages/bytes equal the solve comm-volume
        predictor exactly, sent and received, on fault-free runs."""
        res = _run(grid_ref, nrhs, nprocs, "inline", "static")
        owners, _ = plan_owners(
            grid_ref["wm"], grid_ref["tg"], nprocs, "DW/CY"
        )
        pred = solve_communication_volume(
            grid_ref["tg"], owners, nrhs=nrhs
        )
        met = res.metrics
        sent = sum(w.solve_messages_sent for w in met.workers)
        recv = sum(w.solve_messages_received for w in met.workers)
        assert sent == recv == pred.messages
        bsent = sum(w.solve_bytes_sent for w in met.workers)
        brecv = sum(w.solve_bytes_received for w in met.workers)
        assert bsent == brecv == pred.bytes

    def test_single_rank_is_silent(self, grid_ref):
        """P=1 solves entirely locally: zero solve wire traffic."""
        res = _run(grid_ref, 4, 1, "inline", "static")
        assert res.metrics.solve_messages_total == 0
        assert res.metrics.solve_bytes_total == 0
        assert np.array_equal(res.solution, grid_ref["refs"][4])


class TestSolveTasks:
    def test_task_counts_cover_the_plan(self, grid_ref):
        """Across ranks: one FSOLVE+BSOLVE per panel, one FUPD+BUPD per
        (column, owner) share of the subdiagonal blocks — every rank's
        SolvePlan, nothing twice. At P = 2 (a 1 x 2 grid) that is one
        share per column with blocks; at P = 4 (2 x 2) some columns have
        two."""
        tg = grid_ref["tg"]
        sub = np.flatnonzero(tg.block_I != tg.block_J)
        columns = len(set(tg.block_J[sub].tolist()))
        for nprocs in (2, 4):
            res = _run(grid_ref, 1, nprocs, "inline", "static")
            owners, _ = plan_owners(grid_ref["wm"], tg, nprocs, "DW/CY")
            counts = {"FSOLVE": 0, "FUPD": 0, "BSOLVE": 0, "BUPD": 0}
            for w in res.metrics.workers:
                for k, v in w.solve_task_counts.items():
                    counts[k] += v
            shares = len(set(zip(tg.block_J[sub].tolist(),
                                 owners[sub].tolist())))
            assert counts == {
                "FSOLVE": tg.npanels, "BSOLVE": tg.npanels,
                "FUPD": shares, "BUPD": shares,
            }
            assert (shares == columns) == (nprocs == 2)

    def test_solve_work_is_partitioned(self, grid_ref):
        """Total solve work is independent of P (no task runs twice)."""
        works = set()
        for nprocs in (1, 2, 4):
            res = _run(grid_ref, 4, nprocs, "inline", "static")
            works.add(res.metrics.solve_work_total)
        assert len(works) == 1


def _rank_kinds(tg, owners, nprocs) -> set:
    """What kinds of rank ``owners`` gives ``nprocs`` workers."""
    kinds = set()
    for r in range(nprocs):
        plan = DispatchPlan(tg, owners, r)
        held = set(tg.block_J[owners == r].tolist())
        kinds.add("blockless" if not plan.owned else "no local column"
                  if not plan.local_cols else "all local"
                  if set(plan.local_cols) == held else "some local")
    return kinds


class TestEveryCrewShapeSolves:
    """Every crew shape runs a distributed solve too: a blockless rank, a
    rank none of whose columns is local and a rank whose columns all are
    among them. The outcome is clean, ``x`` is bitwise the sequential
    substitution on a ``1 x P`` grid (to rounding on two grid rows), and
    the solve ledger is ``solve_communication_volume``'s."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @example(n=1, nprocs=2, block_size=8, density=0.0)
    @example(n=24, nprocs=2, block_size=8, density=1.0)
    @example(n=10, nprocs=8, block_size=8, density=0.0)
    @given(n=st.integers(1, 40), nprocs=st.integers(1, 8),
           block_size=st.sampled_from((1, 3, 8)),
           density=st.sampled_from((0.0, 0.1, 1.0)))
    def test_every_shape_solves(self, n, nprocs, block_size, density):
        from repro.solver import SparseCholesky

        chol = SparseCholesky(random_spd_sparse(n, density, seed=n),
                              block_size=block_size)
        bs, tg, A = chol.structure, chol.taskgraph, chol.symbolic.A
        b = np.random.default_rng(n).standard_normal((n, 2))
        res = mp_fanout(bs, A, tg, nprocs=nprocs, rhs=b)
        assert res.failure_report.outcome == "clean"
        ref = block_solve_permuted(BlockCholesky(bs, A).factor(), b)
        if best_grid(nprocs).Pr == 1:
            assert np.array_equal(res.solution, ref)
        else:
            assert abs(res.solution - ref).max() <= 1e-12 * abs(ref).max()
        pred = solve_communication_volume(tg, res.owners, nrhs=2)
        assert (res.metrics.solve_messages_total,
                res.metrics.solve_bytes_total) == (pred.messages, pred.bytes)

    def test_the_examples_hold_every_kind_of_rank(self):
        from repro.solver import SparseCholesky

        kinds = set()
        for n, nprocs, density in ((1, 2, 0.0), (24, 2, 1.0)):
            chol = SparseCholesky(random_spd_sparse(n, density, seed=n),
                                  block_size=8)
            owners, _ = plan_owners(chol.workmodel, chol.taskgraph, nprocs)
            kinds |= _rank_kinds(chol.taskgraph, owners, nprocs)
        assert {"blockless", "no local column", "all local"} <= kinds


class TestLocalPassOrder:
    """A non-local row panel absorbs its forward updates in ascending
    source column, local ones included: on grid12 at P = 2 a non-local
    column K' < a local column K both update one non-local row panel, and
    subtracting K's part before K''s there changes the bits."""

    def test_local_parts_wait_their_turn(self, grid_ref):
        sf, bs, wm, tg = (grid_ref[k] for k in ("sf", "bs", "wm", "tg"))
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        b = _rhs(sf.A.shape[0], 4)
        chol = BlockCholesky(bs, sf.A).factor()
        Y = b.copy()  # the sequential forward sweep, keeping its parts
        panel_rows = bs.numeric_plan().panel_rows
        parts = {}  # (row panel I, source column K) -> (rows, product)
        for k, (c0, c1, rows) in enumerate(panel_rows):
            Y[c0:c1] = Yk = fsolve_kernel(chol.diag[k], Y[c0:c1])
            U = fupd_kernel(chol.stacked[k], Yk)
            Y[rows] -= U
            splits = bs.row_splits[k]
            sub = tg.subdiag_blocks[tg.subdiag_ptr[k]:tg.subdiag_ptr[k + 1]]
            for t, I in enumerate(tg.block_I[sub].tolist()):
                lo, hi = splits[t], splits[t + 1]
                parts[I, k] = rows[lo:hi], U[lo:hi]
        cases = []
        for rank in (0, 1):
            local = DispatchPlan(tg, owners, rank).local_cols
            sp = SolvePlan(bs, tg, owners, rank, local)
            for I, order in sp.fwd_order.items():
                ks = [int(tg.block_J[blk]) for blk, _ in order]
                early = [k for k in ks if k in local]
                if early and min(ks) not in local:
                    cases.append((I, ks, early))
        assert cases
        changed = False
        for I, ks, early in cases:
            late = [k for k in ks if k not in early]
            z_in_order, z_early = b.copy(), b.copy()
            for z, order in ((z_in_order, ks), (z_early, early + late)):
                for k in order:
                    rows, U = parts[I, k]
                    z[rows] -= U
            changed |= not np.array_equal(z_in_order, z_early)
        assert changed
        res = mp_fanout(bs, sf.A, tg, nprocs=2, rhs=b)
        assert np.array_equal(res.solution, grid_ref["refs"][4])

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_local_columns_leave_the_task_tables(self, grid_ref, nprocs):
        """A local column has no solve task, wait count or ordering entry
        of its own; its rows below are its local rows first (applied by
        the forward pass), then one part per non-local block."""
        bs, wm, tg = grid_ref["bs"], grid_ref["wm"], grid_ref["tg"]
        owners, _ = plan_owners(wm, tg, nprocs, "DW/CY")
        ptr, N = np.asarray(bs.partition.panel_ptr), tg.npanels
        for rank in range(nprocs):
            local = DispatchPlan(tg, owners, rank).local_cols
            sp = SolvePlan(bs, tg, owners, rank, local)
            assert local and sp.seeds[0] == 4 * N
            for k in local:
                assert k not in sp.fwd_order and k not in sp.bup_order
                assert not any(sp.wait[kind * N + k] for kind in range(4))
                share = sp.shares.get(k)
                if share is None:
                    continue
                panel = np.searchsorted(ptr, share.rows, "right") - 1
                assert set(panel[:share.m].tolist()) <= set(local)
                assert not set(panel[share.m:].tolist()) & set(local)
                assert sum(hi - lo for _, lo, hi, _ in share.parts) == (
                    len(share.rows) - share.m)


class TestEngineSurface:
    def test_vector_rhs_roundtrip(self, grid12_pipeline):
        """1-D rhs in, (n, 1) solution out of the engine; the facade
        squeezes it back — exercised via run_mp_fanout directly."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        b = _rhs(sf.A.shape[0], 1)[:, 0]
        res = run_mp_fanout(
            bs, sf.A, tg, owners, 2, mapping=name, rhs=b
        )
        ref = block_solve_permuted(BlockCholesky(bs, sf.A).factor(), b)
        assert res.solution.shape == (sf.A.shape[0], 1)
        assert np.array_equal(res.solution, ref)
        assert res.metrics.to_dict()["solve"]["tasks"] > 0

    def test_bad_rhs_shape_is_typed(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        with pytest.raises(ValueError, match="rhs"):
            run_mp_fanout(
                bs, sf.A, tg, owners, 2, mapping=name,
                rhs=np.ones(sf.A.shape[0] + 1),
            )

    def test_no_rhs_means_no_solution(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=2, mapping="DW/CY")
        assert res.solution is None
        assert res.metrics.solve_tasks_total == 0


class TestFacade:
    def test_combined_mp_solve_matches_sequential(self, grid12_pipeline):
        """SparseCholesky.solve() on an unfactored mp instance is a crew
        factor, then the driver's block substitution: bitwise equal to the
        sequential facade and to factor().solve()."""
        from repro.solver import SparseCholesky

        problem, _, _, _, _, _ = grid12_pipeline
        b = _rhs(problem.A.shape[0], 3)
        seq = SparseCholesky(problem.A, ordering="nd", block_size=8)
        x_ref = seq.factor().solve(b)
        with SparseCholesky(
            problem.A, ordering="nd", block_size=8,
            backend="mp", nprocs=2,
        ) as par:
            x = par.solve(b)
            assert np.array_equal(x, x_ref)
            assert par.runtime_metrics.solve_tasks_total == 0
            assert par.solve_residual < 1e-10
            assert np.array_equal(par.factor().solve(b), x)

    @pytest.mark.parametrize("shape", [(5,), (144, 2, 2)])
    def test_bad_rhs_is_a_typed_error_before_any_spawn(
        self, grid12_pipeline, shape, monkeypatch
    ):
        """Same ``ValueError`` on both mp routes as on ``sequential``; the
        combined route raises it without launching the runtime."""
        from repro.solver import SparseCholesky

        A = grid12_pipeline[0].A
        want = f"rhs has shape {shape}; matrix has 144 rows"
        chol = SparseCholesky(A, ordering="nd", block_size=8,
                              backend="mp", nprocs=2)
        monkeypatch.setattr(
            chol, "_run_mp", lambda **kw: pytest.fail("runtime launched")
        )
        with pytest.raises(ValueError) as err:
            chol.solve(np.ones(shape))  # combined factor+solve route
        assert str(err.value) == want
        monkeypatch.undo()
        with pytest.raises(ValueError) as err:
            chol.factor().solve(np.ones(shape))  # factor-then-solve route
        assert str(err.value) == want

    @pytest.mark.parametrize("b, match", [
        (np.ones(144) + 1j * np.arange(144), "complex"),
        (np.zeros((144, 0)), r"shape \(144, 0\)"),
    ])
    def test_complex_or_columnless_rhs_is_refused_before_any_spawn(
        self, grid12_pipeline, b, match, monkeypatch
    ):
        """A complex ``b`` was solved as its real part (a ComplexWarning
        only), an ``(n, 0)`` one substituted nothing and failed in the
        residual: both are a ``ValueError`` on both mp routes."""
        import warnings

        from repro.solver import SparseCholesky

        chol = SparseCholesky(grid12_pipeline[0].A, ordering="nd",
                              block_size=8, backend="mp", nprocs=2)
        monkeypatch.setattr(
            chol, "_run_mp", lambda **kw: pytest.fail("runtime launched")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                chol.solve(b)  # combined factor+solve route
            monkeypatch.undo()
            with pytest.raises(ValueError, match=match):
                chol.factor().solve(b)  # factor-then-solve route
        chol.close()
        assert mp.active_children() == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_is_refused_before_any_spawn(
        self, grid12_pipeline, bad, monkeypatch
    ):
        """The solve kernels no longer scan for NaN/Inf: the façade's
        routes and the driver refuse such a right-hand side where it
        enters, in the words the scan used."""
        from repro.solver import SparseCholesky

        _, sf, _, bs, wm, tg = grid12_pipeline
        A = grid12_pipeline[0].A
        b = _rhs(144, 2)
        b[17, 1] = bad
        want = "array must not contain infs or NaNs"
        chol = SparseCholesky(A, ordering="nd", block_size=8,
                              backend="mp", nprocs=2)
        monkeypatch.setattr(
            chol, "_run_mp", lambda **kw: pytest.fail("runtime launched")
        )
        with pytest.raises(ValueError, match=want):
            chol.solve(b)  # combined factor+solve route
        monkeypatch.undo()
        with pytest.raises(ValueError, match=want):
            chol.factor().solve(b)  # factor-then-solve route
        chol.close()  # the crew factor() started, and the instance holds
        owners, _ = plan_owners(wm, tg, 2, "cyclic")
        with pytest.raises(ValueError, match=want):
            run_mp_fanout(bs, sf.A, tg, owners, 2, rhs=b)
        assert mp.active_children() == []

    @pytest.mark.parametrize("shape", [(5,), (144, 2, 2)])
    def test_every_layer_words_a_bad_rhs_the_same(
        self, grid12_pipeline, shape
    ):
        """The façade's check, the driver's and the worker's raise one
        ``ValueError`` text; the runtime ones before any process exists."""
        from repro.numeric.solve import permute_rhs
        from repro.runtime.links import LinkFabric
        from repro.runtime.pool import PatternContext, PoolJob
        from repro.runtime.worker import Worker

        _, sf, _, bs, wm, tg = grid12_pipeline
        want = f"rhs has shape {shape}; matrix has 144 rows"
        owners, _ = plan_owners(wm, tg, 2, "cyclic")
        context = PatternContext(
            pattern_id="t", structure=bs, tg=tg, owners=owners,
            indptr=sf.A.indptr, indices=sf.A.indices,
        )
        job = PoolJob(seq=0, pattern_id="t", values=sf.A.data,
                      rhs=np.ones(shape))
        worker = Worker(0, context, job, None, LinkFabric(2, queue),
                        queue.Queue())
        for check in (
            lambda: permute_rhs(np.ones(shape), 144, None),
            lambda: run_mp_fanout(bs, sf.A, tg, owners, 2,
                                  rhs=np.ones(shape)),
            lambda: worker._setup(True),
        ):
            with pytest.raises(ValueError) as err:
                check()
            assert str(err.value) == want
        assert mp.active_children() == []

    def test_refinement_reports_residuals(self, grid12_pipeline):
        from repro.solver import SparseCholesky

        problem, _, _, _, _, _ = grid12_pipeline
        b = _rhs(problem.A.shape[0], 1)[:, 0]
        chol = SparseCholesky(problem.A, ordering="nd", block_size=8)
        x = chol.factor().solve(b, refine=1)
        assert len(chol.solve_residuals) == 2
        assert chol.solve_residual == chol.solve_residuals[-1]
        assert chol.solve_residual <= chol.solve_residuals[0] * 10
        assert np.max(np.abs(problem.A @ x - b)) < 1e-10
        with pytest.raises(ValueError):
            chol.solve(b, refine=-1)

    def test_solve_with_factor_reference_path(self, grid12_pipeline):
        """The sequential reference itself: block path == sparse-L path
        to solver tolerance, and the block path is what the facade
        prefers after factor()."""
        problem, sf, _, bs, _, _ = grid12_pipeline
        chol = BlockCholesky(bs, sf.A).factor()
        b = _rhs(problem.A.shape[0], 2)
        xb = solve_with_factor(chol, b, sf.ordering)
        xs = solve_with_factor(chol.to_csc(), b, sf.ordering)
        assert np.max(np.abs(problem.A @ xb - b)) < 1e-10
        assert np.max(np.abs(xb - xs)) < 1e-10
