import numpy as np

from repro.blocks import BlockPartition, BlockStructure, WorkModel, chol_flops
from repro.blocks.workmodel import OP_FIXED_COST
from repro.matrices import dense_matrix
from repro.symbolic import symbolic_factor


class TestCholFlops:
    def test_size_one(self):
        assert chol_flops(1) == 1  # one sqrt

    def test_matches_counts_formula(self):
        from repro.symbolic import factor_ops_from_counts

        for w in (2, 5, 16, 48):
            cc = np.arange(w, 0, -1)
            assert chol_flops(w) == factor_ops_from_counts(cc)


class TestWorkModel:
    def test_blocks_lower_triangular(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        assert (wm.dest_I >= wm.dest_J).all()

    def test_work_formula(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        assert np.array_equal(wm.work, wm.flops + OP_FIXED_COST * wm.nops)

    def test_aggregates_consistent(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        assert wm.workI.sum() == wm.total_work
        assert wm.workJ.sum() == wm.total_work

    def test_dense_total_ops_count(self):
        """For a dense matrix of N panels: N BFACs, N(N-1)/2 BDIVs, and
        sum_k (N-k)(N-k+1)/2 BMODs."""
        p = dense_matrix(64)
        sf = symbolic_factor(p.A, None)
        part = BlockPartition(sf, 16)
        wm = WorkModel(BlockStructure(part))
        N = part.npanels
        expect = N + N * (N - 1) // 2 + sum(
            (N - k - 1) * (N - k) // 2 for k in range(N)
        )
        assert wm.total_ops == expect

    def test_dense_flops_close_to_simplicial(self):
        """Block flops ~ simplicial flops for a dense matrix (same arithmetic
        up to the blocked Cholesky's minor bookkeeping differences)."""
        p = dense_matrix(64)
        sf = symbolic_factor(p.A, None)
        wm = WorkModel(BlockStructure(BlockPartition(sf, 16)))
        assert abs(wm.total_flops - sf.factor_ops) / sf.factor_ops < 0.2

    def test_nmod_counts(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        # every below-diagonal pair (I,J) of each panel K adds one mod
        total_mods = int(wm.nmod.sum())
        bs = wm.structure
        expect = sum(
            m * (m + 1) // 2
            for m in (bs.block_rows[k].shape[0] for k in range(bs.npanels))
        )
        assert total_mods == expect

    def test_custom_fixed_cost(self, grid12_pipeline):
        bs = grid12_pipeline[3]
        wm0 = WorkModel(bs, op_fixed_cost=0)
        assert np.array_equal(wm0.work, wm0.flops)

    def test_diag_blocks_present(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        diag = wm.dest_I == wm.dest_J
        assert int(diag.sum()) == wm.npanels
