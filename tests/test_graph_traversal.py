import numpy as np
from scipy import sparse

from repro.graph import AdjacencyGraph
from repro.graph.traversal import (
    _levels,
    component_ids,
    csgraph_matrix,
    peripheral_levels,
)
from repro.matrices import grid2d_matrix


def path_graph(n):
    rows = np.arange(n - 1)
    A = sparse.coo_matrix((np.ones(n - 1), (rows, rows + 1)), shape=(n, n))
    return AdjacencyGraph.from_sparse(A + A.T)


def two_components(n1, n2):
    n = n1 + n2
    rows = np.concatenate([np.arange(n1 - 1), n1 + np.arange(n2 - 1)])
    cols = rows + 1
    A = sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return AdjacencyGraph.from_sparse(A + A.T)


def piece(graph, keep):
    """The CSR of the subgraph on the vertices ``keep`` marks, as nested
    dissection extracts a piece, and their ids."""
    sub, ids = graph.subgraph(np.flatnonzero(keep))
    return csgraph_matrix(sub), ids


class TestBfsLevels:
    def test_path_distances(self):
        lv = _levels(csgraph_matrix(path_graph(6)), 0)
        assert lv.tolist() == [0, 1, 2, 3, 4, 5]

    def test_unreachable(self):
        lv = _levels(csgraph_matrix(two_components(3, 3)), 0)
        assert (lv[3:] == -1).all()

    def test_mask_blocks(self):
        """A traversal of an extracted piece does not leave it: a vertex
        left out cuts the path."""
        keep = np.array([True, True, False, True, True])
        csr, ids = piece(path_graph(5), keep)
        assert ids.tolist() == [0, 1, 3, 4]
        lv = _levels(csr, 0)
        assert lv.tolist() == [0, 1, -1, -1]  # vertex 3 blocked by vertex 2

    def test_grid_distance(self):
        p = grid2d_matrix(5)
        lv = _levels(csgraph_matrix(AdjacencyGraph.from_sparse(p.A)), 0)
        # 9-point stencil: Chebyshev distance
        assert lv[4 * 5 + 4] == 4


class TestConnectedComponents:
    def test_two(self):
        comps = component_ids(csgraph_matrix(two_components(4, 3)))
        assert [c.tolist() for c in comps] == [[0, 1, 2, 3], [4, 5, 6]]

    def test_partition(self):
        comps = component_ids(csgraph_matrix(two_components(4, 5)))
        allv = np.sort(np.concatenate(comps))
        assert allv.tolist() == list(range(9))

    def test_masked(self):
        """An extracted piece falls apart where a vertex was left out."""
        keep = np.ones(7, dtype=bool)
        keep[3] = False
        csr, ids = piece(path_graph(7), keep)
        comps = [ids[c].tolist() for c in component_ids(csr)]
        assert comps == [[0, 1, 2], [4, 5, 6]]


class TestPseudoPeripheral:
    def test_path_ends(self):
        g = path_graph(9)
        node, levels = peripheral_levels(csgraph_matrix(g), g.degrees, 4)
        assert node in (0, 8)
        assert levels.max() == 8
        assert np.array_equal(levels, _levels(csgraph_matrix(g), node))

    def test_deterministic(self):
        g = AdjacencyGraph.from_sparse(grid2d_matrix(6).A)
        csr = csgraph_matrix(g)
        n1, _ = peripheral_levels(csr, g.degrees, 17)
        n2, _ = peripheral_levels(csr, g.degrees, 17)
        assert n1 == n2
