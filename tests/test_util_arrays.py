import numpy as np
import pytest

from repro.util.arrays import (
    as_index_array,
    invert_permutation,
    is_permutation,
    sorted_unique,
    tril_flat,
)


def union_sorted(a, b):
    """The sorted union as the symbolic layer forms it."""
    return sorted_unique(np.concatenate([a, b]))


class TestAsIndexArray:
    def test_converts_list(self):
        out = as_index_array([3, 1, 2])
        assert out.dtype == np.int64
        assert out.tolist() == [3, 1, 2]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            as_index_array(np.zeros((2, 2)))


class TestIsPermutation:
    def test_identity(self):
        assert is_permutation(np.arange(10))

    def test_shuffled(self):
        assert is_permutation([2, 0, 1])

    def test_duplicate(self):
        assert not is_permutation([0, 0, 2])

    def test_out_of_range(self):
        assert not is_permutation([0, 1, 3])

    def test_negative(self):
        assert not is_permutation([-1, 0, 1])

    def test_empty(self):
        assert is_permutation(np.empty(0, dtype=int))


class TestInvertPermutation:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(50)
        inv = invert_permutation(perm)
        assert np.array_equal(inv[perm], np.arange(50))
        assert np.array_equal(perm[inv], np.arange(50))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            invert_permutation([0, 0, 1])


class TestUnionSorted:
    def test_disjoint(self):
        a = np.array([1, 3], dtype=np.int64)
        b = np.array([2, 4], dtype=np.int64)
        assert union_sorted(a, b).tolist() == [1, 2, 3, 4]

    def test_overlap(self):
        a = np.array([1, 2, 5], dtype=np.int64)
        b = np.array([2, 5, 9], dtype=np.int64)
        assert union_sorted(a, b).tolist() == [1, 2, 5, 9]

    def test_empty_sides(self):
        a = np.array([1, 2], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        assert union_sorted(a, e).tolist() == [1, 2]
        assert union_sorted(e, a).tolist() == [1, 2]
        assert union_sorted(e, e).size == 0

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = np.unique(rng.integers(0, 40, rng.integers(0, 30)))
            b = np.unique(rng.integers(0, 40, rng.integers(0, 30)))
            assert np.array_equal(union_sorted(a, b), np.union1d(a, b))


class TestTrilFlat:
    @pytest.mark.parametrize("w", [1, 2, 5, 48])
    def test_is_tril_indices_flattened(self, w):
        rows, cols = np.tril_indices(w)
        flat = tril_flat(w)
        assert np.array_equal(flat, rows * w + cols)
        a = np.random.default_rng(w).standard_normal((w, w))
        for arr in (a, np.asfortranarray(a)):
            assert np.array_equal(arr.take(flat), a[rows, cols])

    def test_one_shared_read_only_array_per_width(self):
        assert tril_flat(7) is tril_flat(7)
        with pytest.raises(ValueError):
            tril_flat(7)[0] = 3
