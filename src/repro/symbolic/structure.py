"""The :class:`SymbolicFactor` object and the symbolic-analysis driver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.ordering.base import Ordering, permute_spd
from repro.symbolic.amalgamation import AmalgamationParams, amalgamate_supernodes
from repro.symbolic.colcounts import (
    column_counts,
    factor_nnz_from_counts,
    factor_ops_from_counts,
)
from repro.symbolic.etree import (
    elimination_tree,
    etree_postorder,
    relabel_tree,
    tree_depths,
)
from repro.symbolic.supernodes import (
    detect_supernodes,
    snode_of_column,
    supernode_parents,
)
from repro.util.arrays import INDEX_DTYPE, entry_columns, sorted_unique


@dataclass
class SymbolicFactor:
    """Complete symbolic analysis of a permuted SPD matrix.

    Attributes
    ----------
    A:
        The *permuted* matrix (postordered fill-reducing order applied).
    ordering:
        The composed permutation (fill-reducing ∘ postorder).
    parent, depth, cc:
        Elimination-tree parents, node depths, and column counts of L.
    snode_ptr:
        Supernode column boundaries after amalgamation, length S+1.
    snode_rows:
        For each supernode, the sorted row indices strictly below it. The
        supernode's columns themselves form a dense lower triangle.
    """

    A: sparse.csc_matrix
    ordering: Ordering
    parent: np.ndarray
    depth: np.ndarray
    cc: np.ndarray
    snode_ptr: np.ndarray
    snode_rows: list[np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def nsupernodes(self) -> int:
        return self.snode_ptr.shape[0] - 1

    @property
    def factor_nnz(self) -> int:
        """nnz(L) of the simplicial factor (the paper's Table 1 column)."""
        return factor_nnz_from_counts(self.cc)

    @property
    def factor_ops(self) -> int:
        """Simplicial factorization flop count (the paper's "Ops to factor")."""
        return factor_ops_from_counts(self.cc)

    @property
    def supernodal_nnz(self) -> int:
        """Stored nonzeros of the (amalgamated) supernodal factor."""
        total = 0
        for s in range(self.nsupernodes):
            w = int(self.snode_ptr[s + 1] - self.snode_ptr[s])
            total += w * (w + 1) // 2 + w * self.snode_rows[s].shape[0]
        return total

    def snode_width(self, s: int) -> int:
        return int(self.snode_ptr[s + 1] - self.snode_ptr[s])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SymbolicFactor(n={self.n}, supernodes={self.nsupernodes}, "
            f"nnz(L)={self.factor_nnz}, ops={self.factor_ops})"
        )


def supernode_structures(
    A: sparse.csc_matrix,
    snode_ptr: np.ndarray,
    sparent: np.ndarray,
) -> list[np.ndarray]:
    """Row structure below each supernode, by bottom-up union.

    struct(s) = rows of A in s's columns below s, unioned with each child
    supernode's struct filtered below s. One array pass per level of the
    supernode forest, deepest first: a level's children are all one level
    down and already done. A (supernode, row) pair travels as the key
    ``s * n + row``, so sorting keys sorts structures.
    """
    nsup = snode_ptr.shape[0] - 1
    n = A.shape[0]
    if nsup == 0:
        return []
    sparent = np.asarray(sparent, dtype=INDEX_DTYPE)
    end = snode_ptr[1:]
    snode = snode_of_column(snode_ptr, n)[entry_columns(A.indptr)]
    below = A.indices >= end[snode]
    own = sorted_unique(snode[below] * n + A.indices[below])
    depth = tree_depths(sparent)
    # A's own contribution, grouped by the depth of its supernode.
    own_depth = depth[own // n]
    own = own[np.argsort(own_depth, kind="stable")]
    deepest = int(depth.max())
    cut = np.zeros(deepest + 2, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(own_depth, minlength=deepest + 1), out=cut[1:])
    levels = []
    done = own[:0]
    for d in range(deepest, -1, -1):
        keys = own[cut[d] : cut[d + 1]]
        if done.size:
            child, rows = np.divmod(done, n)
            above = sparent[child]
            kept = rows >= end[above]
            keys = sorted_unique(
                np.concatenate([keys, above[kept] * n + rows[kept]])
            )
        levels.append(keys)
        done = keys
    keys = np.concatenate(levels)
    keys.sort()
    snode, rows = np.divmod(keys, n)
    ptr = np.zeros(nsup + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(snode, minlength=nsup), out=ptr[1:])
    ptr = ptr.tolist()
    return [rows[a:b] for a, b in zip(ptr, ptr[1:])]


def symbolic_factor(
    A: sparse.spmatrix,
    ordering: Ordering | np.ndarray | None = None,
    amalgamate: bool = True,
    amalg_params: AmalgamationParams | None = None,
) -> SymbolicFactor:
    """Run the full symbolic pipeline on SPD matrix ``A``.

    1. apply the fill-reducing ordering (identity when None);
    2. compute the elimination tree, postorder it, and compose the
       permutations so supernodes are contiguous;
    3. column counts, supernode detection, supernodal row structure;
    4. relaxed amalgamation (on by default, as in the paper).
    """
    A = A.tocsc()
    n = A.shape[0]
    if ordering is None:
        perm = np.arange(n, dtype=INDEX_DTYPE)
    elif isinstance(ordering, Ordering):
        perm = ordering.perm
    else:
        perm = np.asarray(ordering, dtype=INDEX_DTYPE)

    A1 = permute_spd(A, perm)
    parent = elimination_tree(A1)
    post = etree_postorder(parent)
    if not np.array_equal(post, np.arange(n)):
        # Postordering relabels the tree; only the matrix is permuted again.
        perm = perm[post]
        A1 = permute_spd(A, perm)
        parent = relabel_tree(parent, post)

    cc = column_counts(A1, parent)
    depth = tree_depths(parent)
    snode_ptr = detect_supernodes(parent, cc)
    sparent = supernode_parents(snode_ptr, parent)
    structs = supernode_structures(A1, snode_ptr, sparent)
    if amalgamate:
        snode_ptr, structs = amalgamate_supernodes(
            snode_ptr, structs, sparent, amalg_params
        )
    return SymbolicFactor(
        A=A1,
        ordering=Ordering(perm, method="composed"),
        parent=parent,
        depth=depth,
        cc=cc,
        snode_ptr=snode_ptr,
        snode_rows=structs,
    )
