import numpy as np
import pytest

from repro.blocks import BlockPartition, BlockStructure
from repro.matrices import grid2d_matrix
from repro.numeric import BlockCholesky, solve_with_factor
from repro.numeric.solve import block_solve_permuted, permute_rhs
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import (
    oracle_block_solve,
    oracle_grouped_factor,
    oracle_grouped_solve,
)


class TestSolveWithFactor:
    def test_end_to_end_with_permutation(self, grid12_pipeline):
        problem, sf, _, bs, *_ = grid12_pipeline
        L = BlockCholesky(bs, sf.A).factor().to_csc()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(problem.n)
        x = solve_with_factor(L, b, sf.ordering)
        assert np.max(np.abs(problem.A @ x - b)) < 1e-8

    def test_identity_ordering(self):
        p = grid2d_matrix(6)
        sf = symbolic_factor(p.A, None)
        bs = BlockStructure(BlockPartition(sf, 8))
        L = BlockCholesky(bs, sf.A).factor().to_csc()
        b = np.ones(p.n)
        x = solve_with_factor(L, b, sf.ordering)
        assert np.max(np.abs(p.A @ x - b)) < 1e-8

    def test_multiple_rhs(self, grid12_pipeline):
        problem, sf, _, bs, *_ = grid12_pipeline
        L = BlockCholesky(bs, sf.A).factor().to_csc()
        B = np.eye(problem.n)[:, :3]
        X = solve_with_factor(L, B, sf.ordering)
        assert np.max(np.abs(problem.A @ X - B)) < 1e-8

    def test_matches_numpy_solve(self, grid12_pipeline):
        problem, sf, _, bs, *_ = grid12_pipeline
        L = BlockCholesky(bs, sf.A).factor().to_csc()
        b = np.arange(problem.n, dtype=float)
        x = solve_with_factor(L, b, sf.ordering)
        x_ref = np.linalg.solve(problem.A.toarray(), b)
        assert np.allclose(x, x_ref, atol=1e-7)


class TestBlockSubstitution:
    @pytest.mark.parametrize("pipeline", ["grid12", "random_spd"])
    @pytest.mark.parametrize("nrhs", [1, 4])
    def test_bit_equal_to_the_wrapper_kernels(self, request, pipeline, nrhs):
        """The sweeps' one update product per panel and the direct
        ``dtrtrs`` calls against the grouped loop over ``solve_triangular``
        with every block of a column on one owner: same factor in, same
        bits out — whether the factor's diagonal blocks are C-ordered
        (production) or Fortran-ordered as the wrapper leaves them
        (oracle). The per-block loop agrees to rounding only."""
        _, sf, _, bs, wm, _ = request.getfixturevalue(f"{pipeline}_pipeline")
        owners = np.zeros(wm.dest_I.shape[0], np.int64)
        diag, below = oracle_grouped_factor(bs, sf.A, owners)
        diag = [np.asfortranarray(D) for D in diag]
        chol = BlockCholesky(bs, sf.A).factor()
        pb = np.random.default_rng(nrhs).standard_normal((sf.A.shape[0], nrhs))
        want = oracle_grouped_solve(bs, diag, below, owners, pb)
        assert np.array_equal(block_solve_permuted(chol, pb), want)
        per_block = oracle_block_solve(bs, diag, below, pb)
        assert np.allclose(per_block, want, rtol=1e-12, atol=1e-14)
        handed = BlockCholesky.shell(bs)
        for k, D in enumerate(diag):
            assert D.flags.f_contiguous
            handed.install(k, k, D)
            for i, B in below[k].items():
                handed.install(i, k, B)
        assert np.array_equal(block_solve_permuted(handed, pb), want)
        if nrhs == 1:
            assert np.array_equal(
                solve_with_factor(chol, pb[:, 0]), want[:, 0]
            )


class TestNonFiniteRhs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_refused_where_the_rhs_enters(self, grid12_pipeline, bad, ndim):
        """``check_finite`` left the kernels; ``permute_rhs`` raises the
        wrapper's error before either factor representation is read."""
        problem, sf, _, bs, *_ = grid12_pipeline
        b = np.ones((problem.n, 3)[:ndim])
        b[problem.n // 2] = bad
        want = "array must not contain infs or NaNs"
        with pytest.raises(ValueError, match=want):
            permute_rhs(b, problem.n, sf.ordering)
        chol = BlockCholesky(bs, sf.A).factor()
        for factor in (chol, chol.to_csc()):
            with pytest.raises(ValueError, match=want):
                solve_with_factor(factor, b, sf.ordering)
