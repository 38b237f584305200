"""Breadth-first traversals: level structures, components, pseudo-peripheral nodes.

A traversal runs on the scipy CSR matrix of a graph
(:func:`csgraph_matrix`), and the breadth-first search itself is
:func:`scipy.sparse.csgraph.breadth_first_order`; levels are graph
distances, so they do not depend on who walks the graph. Nested dissection
keeps each piece's subgraph and CSR and calls :func:`peripheral_levels`
and :func:`component_ids` on them, so a piece is extracted once, from its
parent piece, not once per traversal.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.graph.adjacency import AdjacencyGraph
from repro.util.arrays import INDEX_DTYPE


def csgraph_matrix(graph: AdjacencyGraph) -> sparse.csr_matrix:
    """``graph`` as the CSR matrix the ``csgraph`` routines walk.

    Indices go in as int32 whenever they fit, which is what scipy would
    convert them to after scanning them; handing them over narrowed saves
    that scan and copy on every build.
    """
    n = graph.n
    nnz = graph.indices.shape[0]
    idx = np.int32 if max(n, nnz) < np.iinfo(np.int32).max else INDEX_DTYPE
    return sparse.csr_matrix(
        (np.ones(nnz), graph.indices.astype(idx), graph.indptr.astype(idx)),
        shape=(n, n),
    )


def _levels(csr: sparse.csr_matrix, root: int) -> np.ndarray:
    """Distance of every vertex of ``csr`` from ``root``; unreachable = -1."""
    order, pred = csgraph.breadth_first_order(
        csr, root, directed=True, return_predecessors=True
    )
    reached = order.shape[0]
    pos = np.empty(csr.shape[0], dtype=INDEX_DTYPE)
    pos[order] = np.arange(reached, dtype=INDEX_DTYPE)
    # up[k]: position in the BFS order of the parent of the k-th vertex.
    # Hops to the root by pointer doubling; the last vertex is a deepest one.
    up = np.zeros(reached, dtype=INDEX_DTYPE)
    up[1:] = pos[pred[order[1:]]]
    hops = np.ones(reached, dtype=INDEX_DTYPE)
    hops[0] = 0
    while up[-1] != 0:
        hops += hops[up]
        up = up[up]
    levels = np.full(csr.shape[0], -1, dtype=INDEX_DTYPE)
    levels[order] = hops
    return levels


def component_ids(csr: sparse.csr_matrix) -> list[np.ndarray]:
    """Vertex sets (ids of ``csr``) of its connected components, each
    ascending, ordered by their smallest vertex."""
    m = csr.shape[0]
    if m == 0:
        return []
    # One search answers the usual case, a connected set. scipy's component
    # routine first transposes and revalidates an undirected graph, ~190
    # Python-level calls a piece: without this, nested dissection of the
    # 64 x 64 grid takes 0.058 s instead of 0.043 (docs/PERFORMANCE.md).
    if csgraph.breadth_first_order(
        csr, 0, directed=True, return_predecessors=False
    ).shape[0] == m:
        return [np.arange(m, dtype=INDEX_DTYPE)]
    # Labels count up in order of each component's smallest vertex.
    ncomp, labels = csgraph.connected_components(csr, directed=False)
    by_label = np.argsort(labels, kind="stable")
    cuts = np.cumsum(np.bincount(labels, minlength=ncomp))[:-1]
    return np.split(by_label, cuts)


def peripheral_levels(
    csr: sparse.csr_matrix, degrees: np.ndarray, start: int
) -> tuple[int, np.ndarray]:
    """George-Liu pseudo-peripheral node search on the graph ``csr``.

    Repeatedly roots a BFS at a minimum-degree vertex of the deepest level
    until eccentricity stops growing. ``degrees`` (the caller's choice) are
    what the search minimises; ``start`` and the returned ``(node, levels
    from it)`` are ids of ``csr``.
    """
    node = start
    levels = _levels(csr, node)
    ecc = int(levels.max())
    while True:
        last = np.flatnonzero(levels == ecc)
        cand = int(last[np.argmin(degrees[last])])
        new_levels = _levels(csr, cand)
        new_ecc = int(new_levels.max())
        if new_ecc <= ecc:
            return node, levels
        node, levels, ecc = cand, new_levels, new_ecc

