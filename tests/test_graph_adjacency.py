import numpy as np
from scipy import sparse

from repro.graph import AdjacencyGraph
from repro.matrices import fleet_like_matrix, grid2d_matrix
from repro.ordering import resolve_ordering
from repro.solver import SparseCholesky


def path_graph(n):
    rows = np.arange(n - 1)
    cols = rows + 1
    A = sparse.coo_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
    return AdjacencyGraph.from_sparse(A + A.T + sparse.eye(n))


class TestFromSparse:
    def test_diagonal_removed(self):
        g = path_graph(5)
        for v in range(5):
            assert v not in g.neighbors(v)

    def test_symmetrized_from_triangle(self):
        # lower triangle only
        A = sparse.coo_matrix(([1.0], ([3], [1])), shape=(4, 4))
        g = AdjacencyGraph.from_sparse(A)
        assert 1 in g.neighbors(3)
        assert 3 in g.neighbors(1)

    def test_degrees(self):
        g = path_graph(4)
        assert g.degrees.tolist() == [1, 2, 2, 1]

    def test_num_edges(self):
        g = path_graph(6)
        assert g.num_edges == 5

    def test_neighbors_sorted(self):
        p = grid2d_matrix(5)
        g = AdjacencyGraph.from_sparse(p.A)
        for v in range(g.n):
            nb = g.neighbors(v)
            assert np.all(np.diff(nb) > 0)

    def test_stored_zero_is_an_edge(self):
        """The graph, so every ordering, reads the stored pattern only."""
        A = fleet_like_matrix(120, seed=1).A.tocsc()
        B = with_stored_zero(A)
        a, b = AdjacencyGraph.from_sparse(A), AdjacencyGraph.from_sparse(B)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        for method in ("auto", "mmd", "nd"):
            assert np.array_equal(
                resolve_ordering(A, method), resolve_ordering(B, method)
            ), method
        assert np.array_equal(
            SparseCholesky(A).symbolic.ordering.perm,
            SparseCholesky(B).symbolic.ordering.perm,
        )


def with_stored_zero(A):
    """``A`` with its first off-diagonal pair stored as explicit 0.0."""
    B = A.copy()
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    k = np.flatnonzero(A.indices != cols)[0]
    i, j = A.indices[k], cols[k]
    B.data[(A.indices == i) & (cols == j)] = 0.0
    B.data[(A.indices == j) & (cols == i)] = 0.0
    assert B.nnz == A.nnz and np.count_nonzero(B.data) == A.nnz - 2
    return B


class TestSubgraph:
    def test_induced_edges(self):
        g = path_graph(6)
        sub, verts = g.subgraph(np.array([0, 1, 2, 4]))
        assert sub.n == 4
        # local 0-1-2 path, 4 isolated
        assert sub.degrees.tolist() == [1, 2, 1, 0]

    def test_vertex_order_preserved(self):
        g = path_graph(5)
        sub, verts = g.subgraph(np.array([3, 1, 2]))
        assert verts.tolist() == [3, 1, 2]
        # local ids: 0=3, 1=1, 2=2: edges 3-2 and 1-2
        assert set(sub.neighbors(2).tolist()) == {0, 1}
