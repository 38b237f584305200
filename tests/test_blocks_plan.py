"""The ragged range every index map of the numeric plan is built from
(``repro.blocks.plan._ragged_arange``), against the spelling in its
docstring, in the dtype asked for."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.plan import _index_dtype, _ragged_arange


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
