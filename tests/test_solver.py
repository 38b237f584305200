import numpy as np
import pytest
from scipy import sparse

from repro.matrices import grid2d_matrix
from repro.matrices.spd import random_spd_sparse
from repro.numeric import solve_with_factor
from repro.numeric.parallel import parallel_block_cholesky
from repro.solver import SparseCholesky


@pytest.fixture(scope="module")
def grid_solver():
    return SparseCholesky(grid2d_matrix(16).A).factor()


class TestSparseCholesky:
    def test_factor_solve(self, grid_solver):
        n = grid_solver.A.shape[0]
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        x = grid_solver.solve(b)
        assert np.max(np.abs(grid_solver.A @ x - b)) < 1e-8

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    @pytest.mark.parametrize("shape", [(5,), (17, 2), (16, 2, 2), ()])
    def test_bad_rhs_is_a_typed_error(self, backend, shape):
        """``threads`` is no façade backend: its factor comes straight
        from ``parallel_block_cholesky`` and is solved like any other."""
        chol = SparseCholesky(grid2d_matrix(4).A)
        if backend == "sequential":
            solve = chol.factor().solve
        else:
            factor = parallel_block_cholesky(
                chol.structure, chol.symbolic.A, chol.taskgraph, nthreads=2
            ).factor

            def solve(b):
                return solve_with_factor(factor, b, chol.symbolic.ordering)

        with pytest.raises(ValueError) as err:
            solve(np.ones(shape))
        assert str(err.value) == f"rhs has shape {shape}; matrix has 16 rows"

    @pytest.mark.parametrize("b, match", [
        (np.ones(144) + 1j * np.arange(144), "complex"),
        (np.zeros((144, 0)), r"shape \(144, 0\)"),
    ])
    def test_complex_or_columnless_rhs_is_refused(self, b, match):
        """A complex ``b`` was solved as its real part (residual 143 on
        this grid, a ComplexWarning only), an ``(n, 0)`` one failed in the
        residual after a whole substitution: both are a ``ValueError``
        before any substitution."""
        import warnings

        chol = SparseCholesky(grid2d_matrix(12).A).factor()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                chol.solve(b)

    def test_L_before_factor_raises(self):
        s = SparseCholesky(grid2d_matrix(6).A)
        with pytest.raises(RuntimeError):
            _ = s.L

    def test_auto_ordering_mesh_picks_nd(self):
        s = SparseCholesky(grid2d_matrix(24).A, ordering="auto")
        nat = SparseCholesky(grid2d_matrix(24).A, ordering="natural")
        assert s.symbolic.factor_ops < nat.symbolic.factor_ops

    def test_auto_ordering_irregular_runs(self):
        A = random_spd_sparse(120, density=0.05, seed=3)
        s = SparseCholesky(A, ordering="auto").factor()
        assert abs(s.L @ s.L.T - s.symbolic.A).max() < 1e-9

    def test_explicit_permutation(self):
        A = grid2d_matrix(8).A
        perm = np.random.default_rng(1).permutation(A.shape[0])
        s = SparseCholesky(A, ordering=perm).factor()
        b = np.ones(A.shape[0])
        assert np.max(np.abs(A @ s.solve(b) - b)) < 1e-8

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SparseCholesky(sparse.random(4, 5, density=0.5).tocsc())

    def test_unknown_ordering(self):
        with pytest.raises(ValueError, match="zorder"):
            SparseCholesky(grid2d_matrix(4).A, ordering="zorder")

    @pytest.mark.parametrize("triangle", [sparse.tril, sparse.triu])
    def test_triangle_input_is_mirrored(self, triangle):
        """One stored triangle factors and solves the full matrix."""
        A = grid2d_matrix(8).A
        b = np.random.default_rng(2).standard_normal(A.shape[0])
        full = SparseCholesky(A).factor()
        half = SparseCholesky(triangle(A)).factor()
        assert np.array_equal(half.A.toarray(), A.toarray())
        assert np.array_equal(half.L.toarray(), full.L.toarray())
        assert np.max(np.abs(A @ half.solve(b) - b)) < 1e-8

    def test_symmetric_input_is_not_copied(self):
        A = grid2d_matrix(6).A.tocsc()
        assert SparseCholesky(A).A is A

    def test_rejects_unsymmetric_pattern(self):
        A = grid2d_matrix(6).A.tolil()
        A[0, 20] = 1.0  # no (20, 0) entry, and both triangles populated
        with pytest.raises(ValueError, match="not symmetric"):
            SparseCholesky(A.tocsc())

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            SparseCholesky(sparse.csc_matrix((0, 0)))

    @pytest.mark.parametrize("refine", [-1, 1.5, float("nan"), "1"])
    def test_bad_refine_is_a_value_error_before_any_solve(
        self, grid_solver, refine, monkeypatch
    ):
        """``refine`` is checked by ``RunConfig``'s number rule: a
        fraction, NaN or a string is refused as a negative count is."""
        def solved(*a, **k):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(grid_solver, "_base_solve", solved)
        with pytest.raises(ValueError, match="refine"):
            grid_solver.solve(np.ones(grid_solver.A.shape[0]), refine=refine)

    def test_one_by_one(self):
        s = SparseCholesky(sparse.csc_matrix(np.array([[4.0]]))).factor()
        assert s.solve(np.array([2.0])) == pytest.approx([0.5])

    def test_resolve_ordering_delegates(self):
        from repro.ordering import resolve_ordering

        A = grid2d_matrix(8).A
        for method in ("auto", "nd", "mmd"):
            assert np.array_equal(
                SparseCholesky._resolve_ordering(A, method),
                resolve_ordering(A, method),
            )
        assert SparseCholesky._resolve_ordering(A, "natural") is None


class TestPlanning:
    def test_plan_fields(self, grid_solver):
        plan = grid_solver.plan_parallel(16)
        assert plan.P == 16
        assert plan.mflops > 0
        assert 0 < plan.efficiency <= plan.balance_bound + 1e-9
        assert plan.runtime_seconds > 0

    def test_plan_cyclic(self, grid_solver):
        plan = grid_solver.plan_parallel(16, mapping="cyclic")
        assert plan.mapping == "cyclic"

    def test_nonsquare_p_falls_back(self, grid_solver):
        plan = grid_solver.plan_parallel(15)
        assert plan.P == 15
        assert plan.meta["grid"] in ("3x5", "5x3")

    def test_compare_mappings(self, grid_solver):
        plans = grid_solver.compare_mappings(16)
        assert set(plans) == {"cyclic", "ID/CY", "DW/CY"}
        # heuristic should not lose badly to cyclic
        assert plans["ID/CY"].mflops > 0.8 * plans["cyclic"].mflops

    @pytest.mark.parametrize("P", [0, -1])
    def test_fewer_than_one_processor_is_a_value_error(self, grid_solver, P):
        with pytest.raises(ValueError, match="P must be"):
            grid_solver.plan_parallel(P)

    def test_plan_without_factor(self):
        """Planning is symbolic-only: no numeric factorization required."""
        s = SparseCholesky(grid2d_matrix(12).A)
        plan = s.plan_parallel(9)
        assert plan.mflops > 0
