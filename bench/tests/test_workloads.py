import numpy as np
from scipy import sparse

from bench.workloads import (
    MIN_ROUNDS,
    NRHS,
    WORKLOADS,
    ValueStream,
    dad_scale,
)


def _small_spd(n=30, seed=0):
    rng = np.random.default_rng(seed)
    M = sparse.random(n, n, density=0.15, random_state=rng.integers(1 << 30))
    A = (M @ M.T + n * sparse.identity(n)).tocsc()
    A.sort_indices()
    return A


def test_dad_scale_keeps_the_pattern_and_stays_spd():
    A = _small_spd()
    S = dad_scale(A, np.random.default_rng(1))
    assert np.array_equal(S.indptr, A.indptr)
    assert np.array_equal(S.indices, A.indices)
    assert not np.array_equal(S.data, A.data)
    dense = S.toarray()
    assert np.allclose(dense, dense.T)
    np.linalg.cholesky(dense)  # raises if not positive definite


def test_value_stream_is_a_function_of_the_seed():
    A = _small_spd()
    one, again, other = ValueStream(A, 5), ValueStream(A, 5), ValueStream(A, 6)
    assert one.B.shape == (A.shape[0], NRHS)
    assert np.array_equal(one.B, again.B)
    assert np.array_equal(one.next_matrix().data, again.next_matrix().data)
    assert not np.array_equal(one.B, other.B)
    # Successive matrices of one stream differ: every job gets new values.
    assert not np.array_equal(one.next_matrix().data, one.next_matrix().data)


def test_round_count_depends_only_on_seconds_and_never_drops_below_ten():
    for w in WORKLOADS.values():
        assert w.rounds(1) == MIN_ROUNDS
        assert w.rounds(1000) > MIN_ROUNDS
        assert w.rounds(30) == w.rounds(30)


def test_patterns_are_frozen_and_canonical():
    w = WORKLOADS["lp_normal"]
    A, again = w.pattern(smoke=True), w.pattern(smoke=True)
    assert np.array_equal(A.indices, again.indices)
    assert A.has_sorted_indices
    assert (abs(A - A.T)).nnz == 0
