"""Property suite for the structure-aware (supernodal) partitioner.

Hypothesis drives random supernode width profiles and clamp settings
through :class:`SupernodalPartition` and checks the guarantees every
downstream layer (block structure, task graph, arena layout) relies on:

* totality — panel widths sum to n and panels tile the columns;
* clamps — no panel exceeds ``max_width``, and no panel is thinner than
  ``min(min_width, its supernode's width)``;
* determinism — the same symbolic factor yields identical panel arrays;
* the §3.2 invariant — every supernode boundary is a panel boundary
  (panels never straddle supernodes).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.blocks import (  # noqa: E402
    BLOCK_POLICIES,
    BlockPartition,
    BlockStructure,
    SupernodalPartition,
    WorkModel,
    make_partition,
)
from repro.blocks.supernodal import SUPERNODAL_MIN_WIDTH  # noqa: E402
from repro.matrices import grid2d_matrix  # noqa: E402
from repro.ordering import order_problem  # noqa: E402
from repro.symbolic import symbolic_factor  # noqa: E402


def _fake_symbolic(snode_widths: list[int]) -> SimpleNamespace:
    """A minimal stand-in exposing exactly what the partitioner reads."""
    ptr = np.concatenate([[0], np.cumsum(snode_widths)]).astype(np.int64)
    n = int(ptr[-1])
    return SimpleNamespace(
        n=n,
        nsupernodes=len(snode_widths),
        snode_ptr=ptr,
        depth=np.zeros(n, dtype=np.int64),
    )


#: Random supernode width profiles: a mix of thin fringes and wide
#: separator-like supernodes (up to 4x a typical max_width).
snode_widths = st.lists(
    st.integers(min_value=1, max_value=400), min_size=1, max_size=40
)

clamps = st.tuples(
    st.integers(min_value=1, max_value=48),      # min_width
    st.integers(min_value=2, max_value=8),       # max_width multiplier
).map(lambda t: (t[0], t[0] * t[1]))


@given(snode_widths, clamps)
@settings(max_examples=200, deadline=None)
def test_widths_sum_and_clamps(widths, clamp):
    lo, hi = clamp
    sf = _fake_symbolic(widths)
    part = SupernodalPartition(sf, min_width=lo, max_width=hi)
    w = part.widths
    assert int(w.sum()) == sf.n
    assert (w >= 1).all()
    assert (w <= hi).all()
    # Min clamp: a panel may be thinner than min_width only when its whole
    # supernode is (a thin supernode becomes its own panel).
    snode_w = np.diff(sf.snode_ptr)[part.panel_snode]
    assert (w >= np.minimum(lo, snode_w)).all()


@given(snode_widths, clamps)
@settings(max_examples=200, deadline=None)
def test_supernode_boundaries_are_panel_boundaries(widths, clamp):
    lo, hi = clamp
    sf = _fake_symbolic(widths)
    part = SupernodalPartition(sf, min_width=lo, max_width=hi)
    panel_bounds = set(part.panel_ptr.tolist())
    assert set(sf.snode_ptr.tolist()) <= panel_bounds
    # ... equivalently, no panel straddles a supernode (§3.2: column
    # subsets are always subsets of supernodes).
    for k in range(part.npanels):
        s = int(part.panel_snode[k])
        assert sf.snode_ptr[s] <= part.panel_ptr[k]
        assert part.panel_ptr[k + 1] <= sf.snode_ptr[s + 1]


@given(snode_widths, clamps)
@settings(max_examples=100, deadline=None)
def test_deterministic(widths, clamp):
    lo, hi = clamp
    sf = _fake_symbolic(widths)
    a = SupernodalPartition(sf, min_width=lo, max_width=hi)
    b = SupernodalPartition(sf, min_width=lo, max_width=hi)
    np.testing.assert_array_equal(a.panel_ptr, b.panel_ptr)
    np.testing.assert_array_equal(a.panel_snode, b.panel_snode)
    np.testing.assert_array_equal(a.panel_of_col, b.panel_of_col)


@given(snode_widths, clamps)
@settings(max_examples=100, deadline=None)
def test_panel_of_col_inverts_panel_ptr(widths, clamp):
    lo, hi = clamp
    sf = _fake_symbolic(widths)
    part = SupernodalPartition(sf, min_width=lo, max_width=hi)
    for k in range(part.npanels):
        cols = np.arange(part.panel_ptr[k], part.panel_ptr[k + 1])
        assert (part.panel_of_col[cols] == k).all()


class TestClampValidation:
    def test_max_must_be_twice_min(self):
        sf = _fake_symbolic([100])
        with pytest.raises(ValueError, match="max_width"):
            SupernodalPartition(sf, min_width=20, max_width=30)

    def test_min_positive(self):
        sf = _fake_symbolic([10])
        with pytest.raises(ValueError, match="min_width"):
            SupernodalPartition(sf, min_width=0, max_width=10)


class TestFactory:
    def test_policies_registry(self):
        assert BLOCK_POLICIES == ("uniform", "supernodal")

    def test_unknown_policy_rejected(self):
        sf = _fake_symbolic([10])
        with pytest.raises(ValueError, match="block_policy"):
            make_partition(sf, block_policy="variable")

    def test_uniform_matches_block_partition(self):
        problem = grid2d_matrix(12)
        sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
        a = make_partition(sf, "uniform", block_size=8)
        b = BlockPartition(sf, 8)
        assert type(a) is BlockPartition
        assert a.policy_name == "uniform"
        np.testing.assert_array_equal(a.panel_ptr, b.panel_ptr)

    def test_supernodal_defaults_track_block_size(self):
        sf = _fake_symbolic([300])
        part = make_partition(sf, "supernodal", block_size=48)
        assert isinstance(part, SupernodalPartition)
        assert part.policy_name == "supernodal"
        assert part.min_width == SUPERNODAL_MIN_WIDTH
        assert part.max_width == 96

    def test_explicit_clamps_win(self):
        """Explicit clamps are a partition of one's own: the factory takes
        only the policy and ``block_size``."""
        sf = _fake_symbolic([300])
        with pytest.raises(TypeError):
            make_partition(sf, "supernodal", 48, min_width=8)
        part = SupernodalPartition(sf, min_width=8, max_width=32)
        assert part.min_width == 8
        assert part.max_width == 32
        assert (part.widths <= 32).all()


class TestRealPipeline:
    def test_downstream_layers_accept_supernodal(self):
        """BlockStructure/WorkModel consume a supernodal partition and the
        §3.2 invariant survives amalgamation + clamping end to end."""
        problem = grid2d_matrix(20)
        sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
        part = make_partition(sf, "supernodal", block_size=8)
        structure = BlockStructure(part)
        wm = WorkModel(structure)
        assert structure.npanels == part.npanels
        assert wm.total_flops > 0
        assert set(sf.snode_ptr.tolist()) <= set(part.panel_ptr.tolist())
        assert int(part.widths.sum()) == sf.n

    def test_wide_supernodes_get_wider_panels(self):
        """On a problem with supernodes wider than the uniform B, the
        supernodal policy produces strictly wider max panels."""
        problem = grid2d_matrix(40)
        sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
        uni = make_partition(sf, "uniform", block_size=16)
        sup = make_partition(sf, "supernodal", block_size=16)
        if int(np.diff(sf.snode_ptr).max()) > 16:
            assert int(sup.widths.max()) > int(uni.widths.max())
