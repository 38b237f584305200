"""The ragged range every index map of the numeric plan is built from
(``repro.blocks.plan._ragged_arange``), against the spelling in its
docstring, in the dtype asked for; and the plan's ``(panel, row)``
look-up (``NumericPlan._locate``) against the binary search it replaced
(``tests.blockfact_oracle.oracle_locate``), on random structures."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.blocks import BlockPartition, BlockStructure
from repro.blocks.plan import NumericPlan, _index_dtype, _ragged_arange
from repro.matrices import random_spd_sparse
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import oracle_locate


def spelled(starts, lengths, step):
    return np.concatenate([np.empty(0, np.int64), *(
        np.arange(s, s + n * d, d) for s, n, d in zip(starts, lengths, step)
    )])


def check(segments, dtype, stepped):
    starts, lengths, step = np.array(segments, np.int64).reshape(-1, 3).T
    got = _ragged_arange(starts, lengths, dtype, step if stepped else None)
    want = spelled(starts, lengths, step if stepped else np.ones_like(step))
    assert got.dtype == dtype
    assert np.array_equal(got, want)


#: (start, length, step); zero lengths come often.
SEGMENT = st.tuples(
    st.integers(0, 10**6), st.sampled_from([0, 0, 1, 2, 5, 9]),
    st.integers(1, 40),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(SEGMENT, max_size=25), st.integers(0, 3), st.integers(0, 3),
    st.sampled_from([np.int32, np.int64]), st.booleans(),
)
def test_ragged_arange_is_the_concatenated_aranges(
    segments, leading, trailing, dtype, stepped
):
    # Runs of empty segments at either end start where a neighbour does.
    empty = [(0, 0, 1)]
    check(empty * leading + segments + empty * trailing, dtype, stepped)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("stepped", [False, True])
@pytest.mark.parametrize("segments", [
    [],
    [(5, 0, 2)] * 3,
    # Two segments that start at the same output position.
    [(3, 0, 4), (9, 2, 5), (11, 0, 1), (0, 0, 1), (40, 3, 2)],
])
def test_ragged_arange_edges(segments, dtype, stepped):
    check(segments, dtype, stepped)


def test_index_dtype_is_the_narrowest_that_fits():
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64


#: A random SPD pattern and its blocking: (n, density, seed, block size,
#: amalgamate, randomly permuted).
STRUCTURE = st.tuples(
    st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.15, 0.4]),
    st.integers(0, 10**6), st.sampled_from([1, 2, 3, 5, 8]), st.booleans(),
    st.booleans(),
)
SEED = st.integers(0, 2**32 - 1)


def random_structure(n, density, seed, B, amalgamate, permuted):
    A = random_spd_sparse(n, density, seed)
    perm = np.random.default_rng(seed).permutation(n) if permuted else None
    sf = symbolic_factor(A, perm, amalgamate=amalgamate)
    return sf, BlockStructure(BlockPartition(sf, B))


def outcome(build, locate):
    """What ``build()`` returns with ``locate`` as the plan's look-up, or
    the type and message of what it raises."""
    with mock.patch.object(NumericPlan, "_locate", locate):
        try:
            return build()
        except Exception as exc:  # the two must fail alike
            return type(exc), str(exc)


def same(a, b):
    if isinstance(a, tuple) and isinstance(a[0], type):
        return a == b
    return not isinstance(b[0], type) and all(map(np.array_equal, a, b))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(STRUCTURE, SEED)
def test_locate_returns_the_binary_search_positions(shape, seed):
    _, bs = random_structure(*shape)
    plan, rng = NumericPlan(bs), np.random.default_rng(seed)
    # Every pair of the structure, in a random order: all found.
    order = rng.permutation(plan._rows.shape[0])
    panel = np.repeat(np.arange(len(plan.slabs)), plan._nbelow)[order]
    row = plan._rows[order]
    want = oracle_locate(plan, panel, row)
    assert want is not None and np.array_equal(plan._locate(panel, row), want)
    # One random pair alone, then among the found ones: a miss misses
    # the whole call, wherever it stands.
    for K, r in zip(rng.integers(0, len(plan.slabs), 12),
                    rng.integers(0, plan.n, 12)):
        at = rng.integers(0, panel.shape[0] + 1)
        among = (np.insert(panel, at, K), np.insert(row, at, r))
        for q in (([K], [r]), among):
            q = tuple(np.asarray(x, np.int64) for x in q)
            want, got = oracle_locate(plan, *q), plan._locate(*q)
            assert (got is None) == (want is None)
            assert want is None or np.array_equal(got, want)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(STRUCTURE, SEED)
def test_compile_refuses_what_the_binary_search_refuses(shape, seed):
    """One row of one panel moved to a row it does not hold (rows kept
    sorted): compiling the BMOD indices raises "BMOD rows missing from
    destination block" exactly when the binary search's compile does, and
    otherwise builds the same indices."""
    _, bs = random_structure(*shape)
    rng, broken = np.random.default_rng(seed), copy.deepcopy(bs)
    held = [(j, t) for j, rows in enumerate(broken.rows_below)
            for t in range(rows.shape[0])]
    if held:
        j, t = held[rng.integers(len(held))]
        rows = broken.rows_below[j]
        lo = rows[t - 1] + 1 if t else bs.partition.panel_ptr[j + 1]
        hi = rows[t + 1] if t + 1 < rows.shape[0] else bs.partition.symbolic.n
        free = np.setdiff1d(np.arange(lo, hi), rows[t])
        if free.size:
            rows[t] = rng.choice(free)

    def build():
        plan = NumericPlan(broken)
        return plan.rel, plan.slab_flat

    got = outcome(build, NumericPlan._locate)
    assert same(got, outcome(build, oracle_locate))
    if isinstance(got[0], type):
        assert got == (RuntimeError,
                       "BMOD rows missing from destination block")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(STRUCTURE, SEED, st.integers(0, 6))
def test_scatter_map_refuses_what_the_binary_search_refuses(
    shape, seed, extra
):
    """A few entries added anywhere off the diagonal: the scatter map
    raises "matrix entry outside the symbolic structure" exactly when the
    binary search's does, and otherwise is the same map."""
    sf, bs = random_structure(*shape)
    rng, n = np.random.default_rng(seed), sf.A.shape[0]
    r, c = rng.integers(0, n, extra), rng.integers(0, n, extra)
    E = sparse.coo_matrix((np.ones(extra), (r, c)), shape=(n, n))
    M = (sf.A + E + E.T).tocsc()

    def build():
        return NumericPlan(bs).scatter_map(M.indptr, M.indices)

    got = outcome(build, NumericPlan._locate)
    assert same(got, outcome(build, oracle_locate))
    if isinstance(got[0], type):
        assert got == (ValueError,
                       "matrix entry outside the symbolic structure")
