"""Nested dissection ordering.

Grid problems carry vertex coordinates, so we use geometric (coordinate
plane) separators — for regular grids this is the classic George ordering
that the paper calls "asymptotically optimal". Without coordinates we fall
back to BFS level-set separators from a pseudo-peripheral node.

Separator vertices are ordered *after* both halves, recursively, which is
what produces the elimination-tree structure (disjoint subtrees feeding
separator supernodes) that the block fan-out method's domain decomposition
relies on.

Every piece that is split carries its induced subgraph, extracted once from
its parent piece's subgraph, and that subgraph's CSR matrix. The lower side
of a level cut is connected, so it is extracted and never searched for
components; the upper side is extracted once and searched once, and reused
as it is when it is connected. Pieces small enough to be leaves are not
extracted at all.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.separators import geometric_separator, level_separator
from repro.graph.traversal import component_ids, csgraph_matrix
from repro.util.arrays import INDEX_DTYPE

#: A work item: the subgraph induced on a set of vertices, its CSR matrix
#: (both None for a leaf, which is never split) and the vertices' ascending
#: ids in the whole graph.
Piece = tuple[AdjacencyGraph | None, sparse.csr_matrix | None, np.ndarray]


def nested_dissection(
    graph: AdjacencyGraph,
    coords: np.ndarray | None = None,
    leaf_size: int = 32,
) -> np.ndarray:
    """Return the nested-dissection permutation of ``graph``.

    ``perm[k]`` is the original vertex placed k-th. Components of size at
    most ``leaf_size`` are ordered as-is (they become domain subtrees).
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    n = graph.n
    perm = np.empty(n, dtype=INDEX_DTYPE)
    # Degrees of the whole graph steer every pseudo-peripheral search.
    degrees = graph.degrees
    # Fill from the back: each work item is (piece, end_position); the
    # separator occupies the tail of the range, halves recurse before it.
    # Components go one after another, each in a contiguous range.
    work: list[tuple[Piece, int]] = []
    pos = n
    everything = np.arange(n, dtype=INDEX_DTYPE)
    for piece in reversed(
        _pieces(graph, csgraph_matrix(graph), everything, leaf_size)
    ):
        work.append((piece, pos))
        pos -= piece[2].shape[0]

    while work:
        (sub, csr, ids), end = work.pop()
        m = ids.shape[0]
        if m <= leaf_size:
            perm[end - m : end] = ids
            continue
        if coords is not None:
            part_a, sep, part_b = geometric_separator(
                np.arange(m, dtype=INDEX_DTYPE), coords[ids]
            )
            a_connected = False
        else:
            part_a, sep, part_b, a_connected = level_separator(
                csr, degrees[ids]
            )
        if part_a.size == 0 or part_b.size == 0:
            # No useful split found; order the set directly.
            perm[end - m : end] = ids
            continue
        # Layout: [part_a | part_b | separator], separator eliminated last.
        perm[end - sep.shape[0] : end] = ids[sep]
        mid = end - sep.shape[0]
        # Halves may themselves be disconnected once the separator is gone;
        # recurse per connected piece for a tighter elimination tree.
        for part, connected in ((part_b, False), (part_a, a_connected)):
            if connected or part.shape[0] <= 1:
                pieces = [_extract(sub, ids, part, leaf_size)]
            else:
                side, _ = sub.subgraph(part)
                pieces = _pieces(side, csgraph_matrix(side), ids[part], leaf_size)
            for piece in pieces:
                work.append((piece, mid))
                mid -= piece[2].shape[0]
    return perm


def _extract(
    sub: AdjacencyGraph, ids: np.ndarray, part: np.ndarray, leaf_size: int
) -> Piece:
    """The piece of ``sub`` on its ascending vertices ``part``; a leaf is
    not extracted."""
    if part.shape[0] <= leaf_size:
        return None, None, ids[part]
    piece, _ = sub.subgraph(part)
    return piece, csgraph_matrix(piece), ids[part]


def _pieces(
    sub: AdjacencyGraph, csr: sparse.csr_matrix, ids: np.ndarray, leaf_size: int
) -> list[Piece]:
    """Connected pieces of the graph ``sub`` on ``ids``: ``sub`` itself when
    it is connected, otherwise each piece, extracted from ``sub``."""
    comps = component_ids(csr)
    if len(comps) == 1:
        return [(sub, csr, ids)]
    return [_extract(sub, ids, comp, leaf_size) for comp in comps]
