import numpy as np

from repro.graph import AdjacencyGraph
from repro.matrices import bcsstk_like_matrix, grid2d_matrix
from repro.matrices.spd import random_spd_sparse
from repro.ordering import minimum_degree
from repro.symbolic import symbolic_factor
from repro.util.arrays import is_permutation


class TestMinimumDegree:
    def test_permutation(self):
        A = random_spd_sparse(100, density=0.05, seed=1)
        g = AdjacencyGraph.from_sparse(A)
        assert is_permutation(minimum_degree(g))

    def test_reduces_fill_vs_natural(self):
        p = bcsstk_like_matrix(240, seed=4)
        g = AdjacencyGraph.from_sparse(p.A)
        perm = minimum_degree(g)
        md = symbolic_factor(p.A, perm)
        nat = symbolic_factor(p.A, None)
        assert md.factor_ops < nat.factor_ops

    def test_tree_graph_no_fill(self):
        """MD on a tree must produce a perfect (no-fill) ordering."""
        from scipy import sparse

        n = 40
        rng = np.random.default_rng(5)
        parents = [rng.integers(0, i) for i in range(1, n)]
        rows = np.arange(1, n)
        cols = np.array(parents)
        A = sparse.coo_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        A = (A + A.T + sparse.eye(n) * 10).tocsc()
        g = AdjacencyGraph.from_sparse(A)
        perm = minimum_degree(g)
        sf = symbolic_factor(A, perm, amalgamate=False)
        assert sf.factor_nnz == 2 * n - 1  # diagonal + one entry per edge

    def test_deterministic(self):
        A = random_spd_sparse(70, density=0.06, seed=6)
        g = AdjacencyGraph.from_sparse(A)
        assert np.array_equal(minimum_degree(g), minimum_degree(g))

    def test_empty_graph(self):
        from scipy import sparse

        g = AdjacencyGraph.from_sparse(sparse.eye(0).tocsr())
        assert minimum_degree(g).size == 0

    def test_dense_clique(self):
        """On a clique any order is optimal; just require validity."""
        from scipy import sparse

        n = 12
        A = sparse.csr_matrix(np.ones((n, n)))
        g = AdjacencyGraph.from_sparse(A)
        assert is_permutation(minimum_degree(g))

