"""The interpreted ``A -> blocks`` scatter and COO ``to_csc`` that
``BlockCholesky`` ran before the numeric plan replaced them — kept, loop
for loop, as the reference the vectorised maps are compared against."""

from __future__ import annotations

import numpy as np
from scipy import sparse


def oracle_blocks(structure, A):
    """``(diag, below)`` exactly as the per-column scatter built them."""
    part = structure.partition
    A = A.tocsc()
    diag, below = [], []
    ptr = part.panel_ptr
    for k in range(part.npanels):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        w = c1 - c0
        D = np.zeros((w, w))
        rows = structure.rows_below[k]
        blocks = {}
        splits = structure.row_splits[k]
        brows = structure.block_rows[k]
        for t, bi in enumerate(brows):
            blocks[int(bi)] = np.zeros((int(splits[t + 1] - splits[t]), w))
        for j in range(c0, c1):
            col_rows = A.indices[A.indptr[j] : A.indptr[j + 1]]
            col_vals = A.data[A.indptr[j] : A.indptr[j + 1]]
            sel = col_rows >= c0
            col_rows, col_vals = col_rows[sel], col_vals[sel]
            in_diag = col_rows < c1
            D[col_rows[in_diag] - c0, j - c0] = col_vals[in_diag]
            lower_rows = col_rows[~in_diag]
            lower_vals = col_vals[~in_diag]
            if lower_rows.size:
                pos = np.searchsorted(rows, lower_rows)
                if not np.array_equal(rows[pos], lower_rows):
                    raise ValueError(
                        "matrix entry outside the symbolic structure"
                    )
                for p_, v in zip(pos, lower_vals):
                    t = int(np.searchsorted(splits, p_, side="right")) - 1
                    blocks[int(brows[t])][p_ - splits[t], j - c0] = v
        diag.append(np.tril(D) + np.tril(D, -1).T)
        below.append(blocks)
    return diag, below


def oracle_to_csc(chol) -> sparse.csc_matrix:
    """``L`` assembled from ``chol``'s blocks through three COO lists."""
    part = chol.partition
    st = chol.structure
    n = part.symbolic.n
    rows_l, cols_l, vals_l = [], [], []
    ptr = part.panel_ptr
    for k in range(part.npanels):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        tri = np.tril_indices(c1 - c0)
        rows_l.append(tri[0] + c0)
        cols_l.append(tri[1] + c0)
        vals_l.append(chol.diag[k][tri])
        rows = st.rows_below[k]
        if rows.size:
            cols = np.arange(c0, c1)
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            full = np.concatenate(
                [chol.below[k][int(bi)] for bi in st.block_rows[k]], axis=0
            )
            rows_l.append(rr.ravel())
            cols_l.append(cc.ravel())
            vals_l.append(full.ravel())
    L = sparse.coo_matrix(
        (np.concatenate(vals_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
        shape=(n, n),
    )
    return L.tocsc()


def assert_blocks_equal(chol, diag, below) -> None:
    assert len(chol.diag) == len(diag)
    for k, D in enumerate(diag):
        assert chol.diag[k].shape == D.shape
        assert np.array_equal(chol.diag[k], D), f"diag[{k}]"
        assert list(chol.below[k]) == list(below[k])
        for i, B in below[k].items():
            assert chol.below[k][i].shape == B.shape
            assert chol.below[k][i].flags.c_contiguous
            assert np.array_equal(chol.below[k][i], B), f"below[{k}][{i}]"
