import numpy as np

from repro.graph import AdjacencyGraph
from repro.graph.separators import geometric_separator, level_separator
from repro.graph.traversal import csgraph_matrix
from repro.matrices import cube3d_matrix, grid2d_matrix


def check_separator(graph, part_a, sep, part_b):
    """No edge may join part_a and part_b."""
    in_a = np.zeros(graph.n, dtype=bool)
    in_a[part_a] = True
    for v in part_b:
        assert not in_a[graph.neighbors(int(v))].any()


def split(graph, vertices):
    """:func:`level_separator` on the piece of ``graph`` on the ascending
    ``vertices``, extracted as nested dissection extracts it, with the
    parts as ids of ``graph``."""
    sub, ids = graph.subgraph(vertices)
    *parts, _ = level_separator(csgraph_matrix(sub), graph.degrees[ids])
    return tuple(ids[part] for part in parts)


class TestLevelSeparator:
    def test_is_separator_grid(self):
        p = grid2d_matrix(8)
        g = AdjacencyGraph.from_sparse(p.A)
        a, s, b = split(g, np.arange(g.n))
        assert a.size and b.size
        check_separator(g, a, s, b)

    def test_covers_all_vertices(self):
        p = grid2d_matrix(7)
        g = AdjacencyGraph.from_sparse(p.A)
        verts = np.arange(g.n)
        a, s, b = split(g, verts)
        allv = np.sort(np.concatenate([a, s, b]))
        assert np.array_equal(allv, verts)

    def test_tiny_input(self):
        p = grid2d_matrix(4)
        g = AdjacencyGraph.from_sparse(p.A)
        a, s, b = split(g, np.array([3, 7]))
        assert a.size + s.size + b.size == 2

    def test_reasonable_balance(self):
        p = grid2d_matrix(12)
        g = AdjacencyGraph.from_sparse(p.A)
        a, s, b = split(g, np.arange(g.n))
        assert min(a.size, b.size) > 0.15 * g.n


class TestGeometricSeparator:
    def test_grid_plane(self):
        p = grid2d_matrix(9)
        verts = np.arange(p.n)
        a, s, b = geometric_separator(verts, p.coords)
        # median plane of a 9x9 grid: one row/column of 9 vertices
        assert s.size == 9
        assert a.size == b.size == 36

    def test_separates_cube(self):
        p = cube3d_matrix(5)
        g = AdjacencyGraph.from_sparse(p.A)
        verts = np.arange(p.n)
        a, s, b = geometric_separator(verts, p.coords)
        check_separator(g, a, s, b)

    def test_degenerate_single_plane(self):
        coords = np.zeros((6, 2))
        verts = np.arange(6)
        a, s, b = geometric_separator(verts, coords)
        assert a.size + s.size + b.size == 6
