import numpy as np
import pytest

from repro.matrices import grid2d_matrix
from repro.ordering import ORDERINGS, Ordering, order_problem, permute_spd


class TestOrdering:
    def test_inverse_computed(self):
        o = Ordering(np.array([2, 0, 1]))
        assert o.iperm.tolist() == [1, 2, 0]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Ordering(np.array([0, 0, 1]))

    def test_n(self):
        assert Ordering(np.arange(7)).n == 7


class TestPermuteSpd:
    def test_entry_mapping(self):
        p = grid2d_matrix(4)
        rng = np.random.default_rng(0)
        perm = rng.permutation(p.n)
        B = permute_spd(p.A, perm)
        Ad = p.A.toarray()
        assert np.allclose(B.toarray(), Ad[np.ix_(perm, perm)])

    def test_symmetry_preserved(self):
        p = grid2d_matrix(5)
        B = permute_spd(p.A, np.random.default_rng(1).permutation(p.n))
        assert abs(B - B.T).max() < 1e-14

    def test_accepts_ordering_object(self):
        p = grid2d_matrix(3)
        o = Ordering(np.arange(p.n)[::-1].copy())
        B = permute_spd(p.A, o)
        assert np.allclose(B.toarray(), p.A.toarray()[::-1, ::-1])


class TestOrderProblem:
    def test_natural(self):
        p = grid2d_matrix(4)
        o = order_problem(p, "natural")
        assert np.array_equal(o.perm, np.arange(p.n))

    def test_dispatch_recommended(self):
        p = grid2d_matrix(4)  # recommends nd
        o = order_problem(p)
        assert o.method == "nd"

    def test_all_methods_give_permutations(self):
        from repro.util.arrays import is_permutation

        p = grid2d_matrix(6)
        for m in ORDERINGS:
            assert is_permutation(order_problem(p, m).perm), m

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="magic"):
            order_problem(grid2d_matrix(3), "magic")
