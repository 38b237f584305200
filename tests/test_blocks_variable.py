import numpy as np
import pytest

from repro.analysis.blocking import blocking_report
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.blocks.variable import (
    VariableBlockPartition,
    stage_varying_policy,
    uniform_policy,
)
from repro.fanout import TaskGraph
from repro.matrices import grid2d_matrix
from repro.numeric import BlockCholesky
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor


@pytest.fixture(scope="module")
def sf():
    p = grid2d_matrix(14)
    return symbolic_factor(p.A, order_problem(p, "nd"))


class TestVariableBlockPartition:
    def test_uniform_matches_fixed(self, sf):
        fixed = BlockPartition(sf, 8)
        var = VariableBlockPartition(sf, uniform_policy(8))
        assert np.array_equal(fixed.panel_ptr, var.panel_ptr)
        assert np.array_equal(fixed.panel_snode, var.panel_snode)

    def test_covers_columns(self, sf):
        var = VariableBlockPartition(sf, stage_varying_policy(16, 4, 2))
        assert var.panel_ptr[0] == 0 and var.panel_ptr[-1] == sf.n
        assert (np.diff(var.panel_ptr) > 0).all()

    def test_policy_respected(self, sf):
        var = VariableBlockPartition(sf, stage_varying_policy(16, 4, 2))
        snode_depth = sf.depth[sf.snode_ptr[:-1]]
        widths = np.diff(var.panel_ptr)
        for k in range(var.npanels):
            s = int(var.panel_snode[k])
            limit = 16 if snode_depth[s] > 2 else 4
            assert widths[k] <= limit

    def test_downstream_stack_runs(self, sf):
        """The whole pipeline must accept a variable partition unchanged."""
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        wm = WorkModel(BlockStructure(var))
        tg = TaskGraph(wm)
        tg.validate()
        assert tg.ntasks > 0

    def test_numerically_correct(self, sf):
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        bs = BlockStructure(var)
        L = BlockCholesky(bs, sf.A).factor().to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_degenerate_policy_clamped(self, sf):
        var = VariableBlockPartition(sf, lambda d, w: 0)  # clamped to 1
        assert var.npanels == sf.n

    def test_labelled_variable_with_the_shared_panel_map(self, sf):
        """Its own policy label in the blocking report, and the column ->
        panel map the base class builds from the same boundaries."""
        var = VariableBlockPartition(sf, stage_varying_policy(12, 3, 3))
        assert var.policy_name == "variable"
        tg = TaskGraph(WorkModel(BlockStructure(var)))
        assert blocking_report(tg)["block_policy"] == "variable"
        widths = np.diff(var.panel_ptr)
        assert np.array_equal(
            var.panel_of_col, np.repeat(np.arange(var.npanels), widths)
        )
