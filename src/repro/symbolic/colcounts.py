"""Column and row counts of the Cholesky factor, and the paper's operation count.

The nonzeros of row i of L are exactly the nodes of the *row subtree*: the
subtree of the elimination tree spanned by ``{k : A[i,k] != 0, k < i}`` and
rooted at i. Both counts come from the leaves of these subtrees (the
skeleton of A), after Gilbert, Ng and Peyton: in postorder, k is a leaf of
row i's subtree when its first descendant lies beyond every earlier entry
of the row, and the path it adds to the subtree ends at its least common
ancestor with the previous leaf. Work is proportional to nnz(A) — a sort
and a handful of passes over the entries — not to nnz(L).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.symbolic.etree import (
    etree_postorder,
    relabel_tree,
    subtree_sizes,
    tree_depths,
)
from repro.util.arrays import INDEX_DTYPE, entry_columns, invert_permutation


def _row_subtree_leaves(A: sparse.spmatrix, parent: np.ndarray):
    """The leaves of every row subtree, in postorder labels.

    Returns ``(post, parent, first, row, leaf, lca, later)``: the
    postorder, the tree and each node's first descendant relabelled through
    it, and one entry per (row subtree, leaf) pair, ordered by row then
    leaf, where ``lca`` is the least common ancestor of the leaf and the
    row's previous leaf — the row itself for its first leaf — and ``later``
    indexes the entries that are not their row's first.
    """
    A = A.tocsc()
    n = A.shape[0]
    parent = np.asarray(parent, dtype=INDEX_DTYPE)
    row = A.indices
    col = entry_columns(A.indptr)
    below = row > col
    # scipy's int32 indices would wrap in the sort keys once n > 46340.
    row, col = row[below].astype(INDEX_DTYPE), col[below]
    nodes = post = np.arange(n, dtype=INDEX_DTYPE)
    first = nodes - subtree_sizes(parent) + 1
    has = parent != -1
    if (first[parent[has]] > first[has]).any():
        # Some subtree is not a contiguous run of labels: postorder first.
        post = etree_postorder(parent)
        parent = relabel_tree(parent, post)
        label = invert_permutation(post)
        row, col = label[row], label[col]
        first = nodes - subtree_sizes(parent) + 1

    by_row = np.argsort(row * n + col)
    row, col = row[by_row], col[by_row]
    # Running maximum of first[col] within each row: rows ascend, so a
    # row's offset lifts its entries above every earlier row's.
    reach = row * (n + 1) + first[col]
    is_leaf = np.ones(reach.shape[0], dtype=bool)
    is_leaf[1:] = reach[1:] > np.maximum.accumulate(reach)[:-1]
    row, leaf = row[is_leaf], col[is_leaf]

    lca = row.copy()
    later = np.flatnonzero(row[1:] == row[:-1]) + 1
    if later.size:
        # Climb from the previous leaf to its highest ancestor before the
        # leaf (the two lie in different child subtrees of their common
        # ancestor, which follows both): binary lifting over up[k], the
        # 2**k-th ancestor, n once past the root.
        target = leaf[later]
        up = [np.append(np.where(parent == -1, n, parent), n)]
        while (up[-1][:n] < n).any():
            up.append(up[-1][up[-1]])
        node = leaf[later - 1]
        for jump in reversed(up):
            ahead = jump[node]
            node = np.where(ahead < target, ahead, node)
        lca[later] = parent[node]
    return post, parent, first, row, leaf, lca, later


def column_counts(A: sparse.spmatrix, parent: np.ndarray) -> np.ndarray:
    """Nonzero count of every column of L (diagonal included)."""
    post, parent, first, _, leaf, lca, later = _row_subtree_leaves(A, parent)
    n = parent.shape[0]
    # cc[j] is the number of row subtrees j belongs to (its own included).
    # Summed over j's subtree, delta counts +1 for every leaf at or below j
    # and -1 for every join of two leaf paths and every subtree root there.
    above = parent[parent != -1]
    childless = np.ones(n, dtype=bool)
    childless[above] = False
    delta = (
        childless
        + np.bincount(leaf, minlength=n)
        - np.bincount(np.concatenate([lca[later], above]), minlength=n)
    )
    below = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(delta, out=below[1:])
    cc = np.empty(n, dtype=INDEX_DTYPE)
    cc[post] = below[1:] - below[first]
    return cc


def row_counts(A: sparse.spmatrix, parent: np.ndarray) -> np.ndarray:
    """Nonzero count of every *row* of L (diagonal included).

    Row i's count is the size of its row subtree in the elimination tree —
    the number of ``cmod`` updates column-oriented methods apply to column i,
    plus one: each leaf adds the path from itself up to, not including, its
    join with the paths already counted.
    """
    post, parent, _, row, leaf, lca, _ = _row_subtree_leaves(A, parent)
    n = parent.shape[0]
    level = tree_depths(parent)
    rc = np.empty(n, dtype=INDEX_DTYPE)
    rc[post] = 1 + np.bincount(
        row, weights=level[leaf] - level[lca], minlength=n
    ).astype(INDEX_DTYPE)
    return rc


def factor_ops_from_counts(cc: np.ndarray) -> int:
    """Floating-point operations of simplicial sparse Cholesky.

    Per column with ``c`` subdiagonal nonzeros: 1 sqrt, ``c`` divisions, and
    ``c(c+1)`` multiply-adds for the outer-product update. For a dense matrix
    this evaluates to (n^3 - n)/3 + n(n+1)/2 + ... ≈ n^3/3, matching the
    paper's Table 1 entry for DENSE1024 (358.4M ops).
    """
    c = np.asarray(cc, dtype=np.int64) - 1
    return int(np.sum(1 + c + c * (c + 1)))


def factor_nnz_from_counts(cc: np.ndarray) -> int:
    """Nonzeros in L (diagonal included), as reported in the paper's Table 1."""
    return int(np.sum(cc))
