"""Elimination tree computation and tree utilities (Liu 1990).

The elimination tree is the dependency skeleton of sparse Cholesky: column j's
parent is the row index of the first subdiagonal nonzero of L(:,j). It drives
supernode detection, the Increasing-Depth mapping heuristic, and the domain
decomposition of the block fan-out method.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.util.arrays import INDEX_DTYPE, entry_columns, invert_permutation


def elimination_tree(A: sparse.spmatrix) -> np.ndarray:
    """Parent array of the elimination tree of SPD matrix ``A``.

    Liu's algorithm with path compression (virtual ancestors); roots have
    parent -1. Works on the upper-triangular pattern column by column.
    """
    A = A.tocsc()
    n = A.shape[0]
    cols = entry_columns(A.indptr)
    upper = A.indices < cols
    ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(cols[upper], minlength=n), out=ptr[1:])
    # The walk is inherently sequential; it runs over plain ints.
    rows, ptr = A.indices[upper].tolist(), ptr.tolist()
    parent = [-1] * n
    ancestor = [-1] * n
    for j in range(n):
        for i in rows[ptr[j] : ptr[j + 1]]:
            # Walk from i to the root of its current virtual tree, compressing.
            while True:
                anc = ancestor[i]
                if anc == j:
                    break
                ancestor[i] = j
                if anc == -1:
                    parent[i] = j
                    break
                i = anc
    return np.array(parent, dtype=INDEX_DTYPE)


def etree_postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of the tree: ``post[k]`` = k-th node visited.

    Children are visited before parents; each subtree occupies a contiguous
    index range in the postorder. Iterative DFS (no recursion limit issues).
    """
    parent = np.asarray(parent).tolist()
    n = len(parent)
    # Build child lists as head/next arrays; prepend so that child lists come
    # out in increasing order when traversed (stable, deterministic).
    head = [-1] * n
    nxt = [-1] * n
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p != -1:
            nxt[v] = head[p]
            head[p] = v
    post: list[int] = []
    for root in range(n):
        if parent[root] != -1:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            c = head[v]
            if c == -1:
                post.append(v)
                stack.pop()
            else:
                head[v] = nxt[c]  # consume child
                stack.append(c)
    if len(post) != n:
        raise ValueError("parent array is not a forest (cycle detected)")
    return np.array(post, dtype=INDEX_DTYPE)


def relabel_tree(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Parent array of the same forest with node ``order[k]`` renamed ``k``.

    Relabelling an elimination tree through its postorder gives the
    elimination tree of the symmetrically re-permuted matrix.
    """
    parent = np.asarray(parent)[order]
    return np.where(parent == -1, -1, invert_permutation(order)[parent])


def _check_topological(parent: np.ndarray, who: str) -> np.ndarray:
    """Mask of non-root nodes; every parent must follow its child."""
    has = parent != -1
    if (parent[has] <= np.flatnonzero(has)).any():
        raise ValueError(f"{who} requires a postordered etree")
    return has


def tree_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node (roots at depth 0).

    Assumes ``parent[j] > j`` or -1 (true after etree postordering). Pointer
    doubling: ``depth[v]`` counts the hops from v to ``up[v]``, which jumps
    twice as far every round until it rests on the root.
    """
    parent = np.asarray(parent)
    has = _check_topological(parent, "tree_depths")
    depth = has.astype(INDEX_DTYPE)
    up = np.where(has, parent, np.arange(parent.shape[0]))
    while True:
        further = depth[up]
        if not further.any():
            return depth
        depth += further
        up = up[up]


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Number of nodes in each node's subtree (postordered etree required).

    Doubling again: after round k ``size[v]`` counts the descendants fewer
    than ``2**k`` levels below v, and ``up[v]`` is the ancestor ``2**k``
    levels above (``n`` once past the root).
    """
    parent = np.asarray(parent)
    n = parent.shape[0]
    has = _check_topological(parent, "subtree_sizes")
    size = np.ones(n, dtype=INDEX_DTYPE)
    up = np.append(np.where(has, parent, n), n)
    while True:
        inside = np.flatnonzero(up[:n] < n)
        if not inside.size:
            return size
        size += np.bincount(
            up[inside], weights=size[inside], minlength=n
        ).astype(INDEX_DTYPE)
        up = up[up]
