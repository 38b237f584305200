"""Property suite for the per-supernode panel split.

Hypothesis drives random supernode width profiles through the one
splitting loop — :class:`BlockPartition`'s, at a random B, and
:class:`VariableBlockPartition`'s, at a random B per supernode — and checks
the guarantees every downstream layer (block structure, task graph, arena
layout) relies on:

* totality — panel widths sum to n and panels tile the columns;
* the target — no panel is wider than its supernode's B, and the panels of
  one supernode differ in width by at most one;
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
    BlockPartition,
    BlockStructure,
    WorkModel,
    make_partition,
)
from repro.blocks.variable import VariableBlockPartition  # noqa: E402
from repro.matrices import grid2d_matrix  # noqa: E402
from repro.ordering import order_problem  # noqa: E402
from repro.symbolic import symbolic_factor  # noqa: E402
from tests.conftest import variable_partition  # noqa: E402


def _fake_symbolic(snode_widths: list[int]) -> SimpleNamespace:
    """A minimal stand-in exposing exactly what the partitioner reads. The
    elimination tree is a path, so the supernodes are a chain with the
    last one the root: supernode s sits ``nsupernodes - 1 - s`` levels
    deep, and a policy can tell the supernodes apart by depth."""
    ptr = np.concatenate([[0], np.cumsum(snode_widths)]).astype(np.int64)
    n = int(ptr[-1])
    parent = np.arange(1, n + 1, dtype=np.int64)
    parent[-1] = -1
    return SimpleNamespace(
        n=n,
        nsupernodes=len(snode_widths),
        snode_ptr=ptr,
        parent=parent,
    )


#: Random supernode width profiles: a mix of thin fringes and wide
#: separator-like supernodes.
snode_widths = st.lists(
    st.integers(min_value=1, max_value=400), min_size=1, max_size=40
)


@st.composite
def split_cases(draw):
    """``(fake symbolic factor, partition, B of each supernode)``: one B
    for all (``BlockPartition``) or one per supernode
    (``VariableBlockPartition``, its policy reading the depth)."""
    widths = draw(snode_widths)
    sf = _fake_symbolic(widths)
    if draw(st.booleans()):
        B = draw(st.integers(min_value=1, max_value=128))
        return sf, BlockPartition(sf, B), np.full(len(widths), B)
    targets = draw(st.lists(st.integers(min_value=1, max_value=128),
                            min_size=len(widths), max_size=len(widths)))
    part = VariableBlockPartition(sf, lambda depth, width: targets[-1 - depth])
    return sf, part, np.asarray(targets)


@given(split_cases())
@settings(max_examples=200, deadline=None)
def test_widths_sum_and_clamps(case):
    sf, part, targets = case
    w = part.widths
    assert int(w.sum()) == sf.n
    assert (w >= 1).all()
    # No panel is wider than its supernode's B, and a supernode's panels
    # are as even as its width allows.
    assert (w <= targets[part.panel_snode]).all()
    for s in range(sf.nsupernodes):
        mine = w[part.panel_snode == s]
        assert int(mine.max()) - int(mine.min()) <= 1


@given(split_cases())
@settings(max_examples=200, deadline=None)
def test_supernode_boundaries_are_panel_boundaries(case):
    sf, part, _ = case
    panel_bounds = set(part.panel_ptr.tolist())
    assert set(sf.snode_ptr.tolist()) <= panel_bounds
    # ... equivalently, no panel straddles a supernode (§3.2: column
    # subsets are always subsets of supernodes).
    for k in range(part.npanels):
        s = int(part.panel_snode[k])
        assert sf.snode_ptr[s] <= part.panel_ptr[k]
        assert part.panel_ptr[k + 1] <= sf.snode_ptr[s + 1]


@given(split_cases())
@settings(max_examples=100, deadline=None)
def test_deterministic(case):
    sf, a, _ = case
    # A second split to the same targets, through the variable subclass
    # whichever class made the first.
    b = VariableBlockPartition(sf, a.target_width)
    np.testing.assert_array_equal(a.panel_ptr, b.panel_ptr)
    np.testing.assert_array_equal(a.panel_snode, b.panel_snode)
    np.testing.assert_array_equal(a.panel_of_col, b.panel_of_col)


@given(split_cases())
@settings(max_examples=100, deadline=None)
def test_panel_of_col_inverts_panel_ptr(case):
    _, part, _ = case
    for k in range(part.npanels):
        cols = np.arange(part.panel_ptr[k], part.panel_ptr[k + 1])
        assert (part.panel_of_col[cols] == k).all()


class TestFactory:
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
        np.testing.assert_array_equal(a.panel_ptr, b.panel_ptr)

    def test_explicit_clamps_win(self):
        """The factory takes only the policy name and ``block_size``:
        other widths are a partition of one's own."""
        sf = _fake_symbolic([300])
        with pytest.raises(TypeError):
            make_partition(sf, "uniform", 48, min_width=8)
        part = VariableBlockPartition(sf, lambda depth, width: 32)
        assert part.widths.tolist() == [30] * 10


class TestRealPipeline:
    def test_downstream_layers_accept_supernodal(self):
        """BlockStructure/WorkModel consume a per-supernode partition and
        the §3.2 invariant survives amalgamation end to end."""
        problem = grid2d_matrix(20)
        sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
        part = variable_partition(sf, 8)
        assert np.unique(part.widths).size >= 3
        structure = BlockStructure(part)
        wm = WorkModel(structure)
        assert structure.npanels == part.npanels
        assert wm.total_flops > 0
        assert set(sf.snode_ptr.tolist()) <= set(part.panel_ptr.tolist())
        assert int(part.widths.sum()) == sf.n

    def test_wide_supernodes_get_wider_panels(self):
        """A B equal to each supernode's width makes every supernode one
        panel: on a problem with supernodes wider than the uniform B, its
        widest panel is strictly wider."""
        problem = grid2d_matrix(40)
        sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
        uni = BlockPartition(sf, 16)
        whole = VariableBlockPartition(sf, lambda depth, width: width)
        assert np.array_equal(whole.panel_ptr, sf.snode_ptr)
        assert int(np.diff(sf.snode_ptr).max()) > 16
        assert int(whole.widths.max()) > int(uni.widths.max())
