"""Vertex separators from BFS level structures.

General-graph nested dissection uses the classic level-set separator: build a
level structure from a pseudo-peripheral node, cut at the median-work level,
and take the cut level as separator (each of its vertices borders the
levels below). :func:`level_separator` is the split on an already extracted
graph, the one nested dissection calls on every piece it keeps.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.graph.traversal import peripheral_levels
from repro.util.arrays import INDEX_DTYPE


def level_separator(
    csr: sparse.csr_matrix, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Split the connected graph ``csr`` into (part_a, separator, part_b).

    The separator is a true vertex separator: no edge joins ``part_a`` and
    ``part_b``. Either part may be empty for tiny or pathological graphs;
    callers treat that as "stop recursing". ``degrees`` holds the degree
    the pseudo-peripheral search, started at vertex 0, reads for each
    vertex. Each part is ascending vertex ids of ``csr``; the fourth value,
    ``level_cut``, says the split is a cut of the level structure, whose
    ``part_a`` is connected: each of its vertices reaches the root through
    the levels below the cut.
    """
    m = csr.shape[0]
    if m <= 2:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return np.arange(m, dtype=INDEX_DTYPE), empty, empty, False

    _, levels = peripheral_levels(csr, degrees, 0)
    if (levels < 0).any():
        raise ValueError("level_separator requires a connected graph")

    max_level = int(levels.max())
    if max_level < 2:
        # Graph too shallow for a level cut; fall back to a degree-based cut:
        # take the highest-degree vertex as separator.
        sep_at = int(np.argmax(degrees))
        rest = np.delete(np.arange(m, dtype=INDEX_DTYPE), sep_at)
        half = rest.shape[0] // 2
        return rest[:half], np.array([sep_at], dtype=INDEX_DTYPE), rest[half:], False

    # Choose the cut level so the vertex counts on each side are balanced.
    counts = np.bincount(levels, minlength=max_level + 1)
    below = np.cumsum(counts)
    total = below[-1]
    # candidate separator levels 1..max_level-1
    imbalance = np.abs(2 * below[:-1] - total)
    cut = 1 + int(np.argmin(imbalance[1:max_level]))

    # The whole cut level separates: each of its vertices has its BFS
    # parent one level below, so none of them could join the upper part.
    return (
        np.flatnonzero(levels < cut),
        np.flatnonzero(levels == cut),
        np.flatnonzero(levels > cut),
        True,
    )


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
