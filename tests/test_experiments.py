"""Tests of the experiment harness at small scale (fast, shape-checking)."""

import numpy as np
import pytest

from repro.experiments import clear_cache, prepare_problem
from repro.experiments import runner
from repro.experiments.table1 import run as table1
from repro.experiments.table2 import run as table2
from repro.experiments.table3 import run as table3
from repro.experiments.table4 import mflops, overall_balance, pair_grid
from repro.experiments.table7 import run as table7
from repro.experiments.figure1 import run as figure1
from repro.experiments.ablations import run_block_size, run_zero_comm
from repro.mapping.heuristics import HEURISTICS


class TestPipeline:
    def test_prepare_caches(self):
        a = prepare_problem("GRID150", "small")
        b = prepare_problem("GRID150", "small")
        assert a is b
        clear_cache()
        c = prepare_problem("GRID150", "small")
        assert c is not a

    def test_prepared_consistency(self):
        prep = prepare_problem("BCSSTK15", "small")
        assert prep.taskgraph.npanels == prep.partition.npanels
        assert prep.factor_ops == prep.symbolic.factor_ops


class TestRunner:
    def test_pct(self):
        assert runner.pct(120, 100) == pytest.approx(20)
        assert runner.pct(80, 100) == pytest.approx(-20)
        assert runner.pct(5, 0) == 0.0

    def test_render(self):
        res = runner.ExperimentResult("T", ("a",), [[1.5]], notes="n")
        out = res.render()
        assert "T" in out and "1.50" in out and out.endswith("n")


class TestTables:
    def test_table1_rows(self):
        res = table1("small")
        assert len(res.rows) == 10
        for row in res.rows:
            assert row[1] > 0 and row[2] > 0

    def test_table2_balance_ordering(self):
        res = table2("small", P=16)
        for row in res.rows:
            name, r, c, d, o = row[0], row[1], row[2], row[3], row[4]
            assert o <= min(r, c, d) + 1e-12, name

    def test_table3_heuristics_beat_cyclic(self):
        res = table3("small", P=16)
        overall = {row[0]: row[4] for row in res.rows}
        assert overall["ID"] > overall["CY"]
        assert overall["DW"] > overall["CY"]

    def test_table4_grid_cyclic_zero(self):
        means = pair_grid(overall_balance, "small", 16,
                          ("GRID150", "BCSSTK15"))
        assert means[("CY", "CY")] == pytest.approx(0.0)
        assert means[("ID", "CY")] > 0

    def test_table5_grid_runs(self):
        means = pair_grid(mflops, "small", 16, ("BCSSTK15",))
        assert means[("CY", "CY")] == pytest.approx(0.0)
        assert len(means) == len(HEURISTICS) ** 2

    def test_table7_shape(self):
        res = table7("small", Ps=(16,))
        assert len(res.rows) == 6
        improvements = [row[4] for row in res.rows]
        # majority of large problems should improve under the heuristic
        assert sum(1 for i in improvements if i > 0) >= 3

    def test_figure1_invariant(self):
        res = figure1("small", Ps=(16,))
        for name, P, eff, bal in res.rows:
            assert eff <= bal + 1e-9, name


class TestAblations:
    def test_block_size_sweep(self):
        res = run_block_size("small", P=16, matrix="BCSSTK15",
                             sizes=(8, 16, 32))
        assert len(res.rows) == 3
        panels = [row[1] for row in res.rows]
        assert panels[0] >= panels[-1]  # smaller B -> more panels

    def test_zero_comm_gap_nonnegative(self):
        res = run_zero_comm("small", P=16)
        for name, eff, bound, gap in res.rows:
            assert gap >= -1e-9, name
