import pickle

import numpy as np
import pytest

from repro.analysis.blocking import blocking_report
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.blocks.variable import (
    VariableBlockPartition,
    stage_varying_policy,
)
from repro.fanout import TaskGraph
from repro.matrices import grid2d_matrix
from repro.numeric import BlockCholesky
from repro.ordering import order_problem
from repro.symbolic import supernode_parents, symbolic_factor, tree_depths
from tests.conftest import validate_task_graph


@pytest.fixture(scope="module")
def sf():
    p = grid2d_matrix(14)
    return symbolic_factor(p.A, order_problem(p, "nd"))


class TestVariableBlockPartition:
    def test_uniform_matches_fixed(self, sf):
        fixed = BlockPartition(sf, 8)
        var = VariableBlockPartition(sf, lambda depth, width: 8)
        assert np.array_equal(fixed.panel_ptr, var.panel_ptr)
        assert np.array_equal(fixed.panel_snode, var.panel_snode)

    def test_covers_columns(self, sf):
        var = VariableBlockPartition(sf, stage_varying_policy(16, 4, 2))
        assert var.panel_ptr[0] == 0 and var.panel_ptr[-1] == sf.n
        assert (np.diff(var.panel_ptr) > 0).all()

    def test_policy_respected(self, sf):
        var = VariableBlockPartition(sf, stage_varying_policy(16, 4, 2))
        snode_depth = tree_depths(supernode_parents(sf.snode_ptr, sf.parent))
        widths = np.diff(var.panel_ptr)
        for k in range(var.npanels):
            s = int(var.panel_snode[k])
            limit = 16 if snode_depth[s] > 2 else 4
            assert widths[k] <= limit

    def test_late_width_reaches_the_shallow_supernodes(self):
        """The policy is keyed on supernode-tree depth: on GRID150 the
        supernodes near the root get the late B = 24 and split into more
        panels than B = 96 alone gives. (Keyed on a column's etree depth,
        which runs far deeper, no supernode got the late B.)"""
        from repro.experiments.pipeline import prepare_problem

        sf = prepare_problem("GRID150", "small").symbolic
        var = VariableBlockPartition(sf, stage_varying_policy())
        assert var.npanels > BlockPartition(sf, 96).npanels

    def test_downstream_stack_runs(self, sf):
        """The whole pipeline must accept a variable partition unchanged."""
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        wm = WorkModel(BlockStructure(var))
        tg = TaskGraph(wm)
        validate_task_graph(tg)
        assert tg.ntasks > 0

    def test_numerically_correct(self, sf):
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        bs = BlockStructure(var)
        L = BlockCholesky(bs, sf.A).factor().to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_only_the_target_width_is_its_own(self, sf):
        """One splitting loop: the subclass overrides the target width and
        nothing else of the split, and carries no ``block_size``
        sentinel. Pickling one first (a worker does) leaves only
        ``copyreg``'s ``__slotnames__`` cache on the class, which is not
        an override."""
        pickle.dumps(VariableBlockPartition(sf, stage_varying_policy(8, 8)))
        own = set(vars(VariableBlockPartition)) - {
            "__module__", "__doc__", "__slotnames__"}
        assert own == {"__init__", "target_width", "__repr__"}
        var = VariableBlockPartition(sf, stage_varying_policy(8, 8))
        assert not hasattr(var, "block_size")
        assert var.target_width(0, 100) == 8

    def test_a_stage_varying_partition_pickles(self, sf):
        """A worker process receives the structure by pickle."""
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        back = pickle.loads(pickle.dumps(var))
        assert np.array_equal(back.panel_ptr, var.panel_ptr)
        assert back.target_width(4, 10) == 12

    def test_degenerate_policy_clamped(self, sf):
        var = VariableBlockPartition(sf, lambda d, w: 0)  # clamped to 1
        assert var.npanels == sf.n

    def test_labelled_variable_with_the_shared_panel_map(self, sf):
        """The blocking report reads its widths like any partition's, and
        the column -> panel map is the one the base class builds from the
        same boundaries."""
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        tg = TaskGraph(WorkModel(BlockStructure(var)))
        report = blocking_report(tg)
        assert "block_policy" not in report
        assert report["npanels"] == var.npanels
        assert report["width_max"] == int(var.widths.max())
        widths = np.diff(var.panel_ptr)
        assert np.array_equal(
            var.panel_of_col, np.repeat(np.arange(var.npanels), widths)
        )
