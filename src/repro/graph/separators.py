"""Vertex separators from BFS level structures.

General-graph nested dissection uses the classic level-set separator: build a
level structure from a pseudo-peripheral node, cut at the median-work level,
and take as separator the smaller-side boundary vertices of the cut level.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.traversal import pseudo_peripheral_node


def vertex_separator_from_levels(
    graph: AdjacencyGraph,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``vertices`` (one connected component) into (part_a, separator, part_b).

    The separator is a true vertex separator: no edge joins ``part_a`` and
    ``part_b`` in the induced subgraph. Either part may be empty for tiny or
    pathological components; callers treat that as "stop recursing".
    """
    vertices = np.asarray(vertices)
    if vertices.size <= 2:
        return vertices, np.empty(0, dtype=vertices.dtype), np.empty(0, dtype=vertices.dtype)

    mask = np.zeros(graph.n, dtype=bool)
    mask[vertices] = True
    _, levels = pseudo_peripheral_node(graph, int(vertices[0]), mask=mask)
    if (levels[vertices] < 0).any():
        raise ValueError(
            "vertex_separator_from_levels requires a connected vertex set"
        )

    max_level = int(levels.max())
    if max_level < 2:
        # Graph too shallow for a level cut; fall back to a degree-based cut:
        # take the highest-degree vertex as separator.
        local_deg = graph.degrees[vertices]
        sep_v = vertices[np.argmax(local_deg)]
        rest = vertices[vertices != sep_v]
        half = rest.shape[0] // 2
        return rest[:half], np.array([sep_v], dtype=vertices.dtype), rest[half:]

    # Choose the cut level so the vertex counts on each side are balanced.
    counts = np.bincount(levels[vertices], minlength=max_level + 1)
    below = np.cumsum(counts)
    total = below[-1]
    # candidate separator levels 1..max_level-1
    imbalance = np.abs(2 * below[:-1] - total)
    cut = 1 + int(np.argmin(imbalance[1:max_level]))

    in_sep_level = levels == cut
    lower = vertices[levels[vertices] < cut]
    upper = vertices[levels[vertices] > cut]

    # Shrink the separator: only cut-level vertices adjacent to the lower side
    # must be kept; the rest join the upper part.
    sep_candidates = vertices[in_sep_level[vertices]]
    lower_mask = np.zeros(graph.n, dtype=bool)
    lower_mask[lower] = True
    nbrs, owner = graph.neighbors_of(sep_candidates)
    keep = np.zeros(sep_candidates.shape[0], dtype=bool)
    keep[owner[lower_mask[nbrs]]] = True
    separator = sep_candidates[keep]
    upper = np.concatenate([upper, sep_candidates[~keep]])
    return lower, separator, upper


def geometric_separator(
    vertices: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-bisection separator for mesh problems.

    Cuts the widest coordinate axis at its median; the separator is the slab
    of vertices at the median plane coordinate (one grid plane for regular
    grids, which is the asymptotically optimal nested-dissection cut).
    """
    pts = coords[vertices]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    vals = pts[:, axis]
    median = np.median(vals)
    # Snap to the nearest actual plane coordinate ≥ median.
    plane_vals = np.unique(vals)
    plane = plane_vals[np.searchsorted(plane_vals, median)]
    lower = vertices[vals < plane]
    sep = vertices[vals == plane]
    upper = vertices[vals > plane]
    if lower.size == 0 or upper.size == 0:
        # Degenerate (all on one plane): split arbitrarily in half.
        half = vertices.shape[0] // 2
        return (
            vertices[:half],
            np.empty(0, dtype=vertices.dtype),
            vertices[half:],
        )
    return lower, sep, upper
