import numpy as np
import pytest

from repro.matrices import dense_matrix, grid2d_matrix
from repro.matrices.spd import random_spd_sparse
from repro.numeric import BlockCholesky
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor
from tests.multifrontal_oracle import MultifrontalCholesky


class TestMultifrontal:
    def test_grid_reconstructs(self, grid12_pipeline):
        _, sf, *_ = grid12_pipeline
        mf = MultifrontalCholesky(sf).factor()
        L = mf.to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_random_reconstructs(self, random_spd_pipeline):
        _, sf, *_ = random_spd_pipeline
        L = MultifrontalCholesky(sf).factor().to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_dense_single_front(self):
        p = dense_matrix(24)
        sf = symbolic_factor(p.A, None)
        mf = MultifrontalCholesky(sf).factor()
        assert mf.peak_front == 24
        L = mf.to_csc().toarray()
        assert np.allclose(np.tril(L), np.linalg.cholesky(sf.A.toarray()))

    def test_matches_block_fanout_values(self, grid12_pipeline):
        """Three drivers, one factor: multifrontal == block fan-out."""
        _, sf, _, bs, *_ = grid12_pipeline
        L_mf = MultifrontalCholesky(sf).factor().to_csc()
        L_bf = BlockCholesky(bs, sf.A).factor().to_csc()
        assert abs(L_mf - L_bf).max() < 1e-10

    def test_requires_factor_before_extract(self, grid12_pipeline):
        _, sf, *_ = grid12_pipeline
        with pytest.raises(RuntimeError):
            MultifrontalCholesky(sf).to_csc()

    def test_peak_front_bounded(self, grid12_pipeline):
        """Front size = supernode width + |R_s| <= n."""
        _, sf, *_ = grid12_pipeline
        mf = MultifrontalCholesky(sf).factor()
        widths = np.diff(sf.snode_ptr)
        expect = max(
            int(widths[s]) + sf.snode_rows[s].shape[0]
            for s in range(sf.nsupernodes)
        )
        assert mf.peak_front == expect <= sf.n

    def test_amalgamation_off_still_works(self):
        A = random_spd_sparse(80, density=0.06, seed=5)
        sf = symbolic_factor(A, None, amalgamate=False)
        L = MultifrontalCholesky(sf).factor().to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_solve_through_factor(self, grid12_pipeline):
        from repro.numeric import solve_with_factor

        problem, sf, *_ = grid12_pipeline
        L = MultifrontalCholesky(sf).factor().to_csc()
        b = np.arange(problem.n, dtype=float)
        x = solve_with_factor(L, b, sf.ordering)
        assert np.max(np.abs(problem.A @ x - b)) < 1e-8
