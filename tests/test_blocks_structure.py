import numpy as np

from repro.blocks import BlockPartition, BlockStructure
from repro.matrices import dense_matrix
from repro.symbolic import symbolic_factor


class TestBlockStructure:
    def test_rows_below_sorted(self, grid12_pipeline):
        bs = grid12_pipeline[3]
        for k in range(bs.npanels):
            rows = bs.rows_below[k]
            if rows.size > 1:
                assert (np.diff(rows) > 0).all()

    def test_block_rows_strictly_below(self, grid12_pipeline):
        bs = grid12_pipeline[3]
        for k in range(bs.npanels):
            assert (bs.block_rows[k] > k).all()

    def test_counts_sum_to_rows(self, grid12_pipeline):
        bs = grid12_pipeline[3]
        for k in range(bs.npanels):
            assert bs.block_counts[k].sum() == bs.rows_below[k].shape[0]

    def test_row_spans_partition_rows(self, grid12_pipeline):
        bs = grid12_pipeline[3]
        part = bs.partition
        for k in range(bs.npanels):
            for t, bi in enumerate(bs.block_rows[k]):
                span = bs.block_row_span(k, t)
                assert (part.panel_of_col[span] == bi).all()

    def test_dense_block_count(self):
        """A dense matrix with N panels has N(N+1)/2 nonzero blocks."""
        p = dense_matrix(60)
        sf = symbolic_factor(p.A, None)
        part = BlockPartition(sf, 15)
        bs = BlockStructure(part)
        N = part.npanels
        assert N == 4
        assert bs.num_blocks == N * (N + 1) // 2

    def test_matches_dense_factor_pattern(self, grid12_pipeline):
        """Every nonzero of L lies inside some block of the structure."""
        _, sf, part, bs, *_ = grid12_pipeline
        L = np.linalg.cholesky(sf.A.toarray())
        nz_rows, nz_cols = np.nonzero(np.abs(L) > 1e-13)
        below = nz_rows > nz_cols
        for r, c in zip(nz_rows[below], nz_cols[below]):
            k = int(part.panel_of_col[c])
            if part.panel_of_col[r] == k:
                continue  # inside the diagonal block
            assert r in bs.rows_below[k]

    def test_supernodal_nnz_ge_simplicial(self, grid12_pipeline):
        _, sf, *_ = grid12_pipeline
        assert sf.supernodal_nnz >= sf.factor_nnz
