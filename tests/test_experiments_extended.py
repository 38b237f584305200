"""Unit tests of the extended experiment modules at small scale."""

import numpy as np
import pytest

from repro.experiments.ablations import run_contention, run_domains_ablation
from repro.experiments.alt_heuristic import run as alt_run
from repro.experiments.dense_study import run as dense_run
from repro.experiments.discussion import (
    run_critical_path,
    run_priority_scheduling,
    run_subcube,
)
from repro.experiments.oned_comparison import (
    run_critical_path_scaling,
    run_volume_scaling,
)
from repro.experiments.prime_grids import run as prime_run
from repro.experiments.variable_block import run as vb_run


class TestDiscussionExperiments:
    def test_critical_path_rows(self):
        res = run_critical_path("small", P=16, matrices=("BCSSTK15",))
        assert len(res.rows) == 1
        name, P, eff, cp_eff, headroom = res.rows[0]
        assert cp_eff >= eff - 1e-9

    def test_subcube_volume_nonincreasing_on_sparse(self):
        res = run_subcube("small", P=16)
        sparse_rows = [r for r in res.rows if not r[0].startswith("DENSE")]
        deltas = [r[3] for r in sparse_rows]
        assert np.mean(deltas) <= 5.0

    def test_scheduling_policies_rows(self):
        res = run_priority_scheduling(
            "small", P=16, policies=("fifo", "bottom_level")
        )
        assert len(res.headers) == 3
        for row in res.rows:
            assert row[1] > 0 and row[2] > 0


class TestAblationsAndStudies:
    def test_contention_has_ten_rows(self):
        res = run_contention("small", P=16)
        assert len(res.rows) == 10

    def test_domains_data_keys(self):
        res = run_domains_ablation("small", P=16)
        for d in res.data.values():
            assert {"bytes_with", "bytes_without"} <= set(d)

    def test_dense_study_rows(self):
        res = dense_run("small", P=16)
        assert [r[0] for r in res.rows] == [
            "DENSE1024", "DENSE2048", "DENSE4096",
        ]

    def test_variable_block_subset(self):
        res = vb_run("small", P=16, matrices=("GRID150",))
        assert len(res.rows) == 1
        d = res.data["GRID150"]
        assert d["fixed"]["mflops"] > 0 and d["varying"]["mflops"] > 0
        assert d["fixed24"]["mflops"] > 0 and len(res.rows[0]) == 10

    def test_alt_heuristic_means_present(self):
        res = alt_run("small", P=16)
        assert "mean_balance_improvement" in res.data
        assert "mean_performance_improvement" in res.data

    def test_prime_grids_means(self):
        res = prime_run("small", Ps=(16,))
        assert 16 in res.data["mean_prime_improvement"]


class TestOnedExperiments:
    def test_volume_scaling_monotone(self):
        res = run_volume_scaling("small", matrix="GRID150", Ps=(16, 64))
        assert res.data[64]["oned_mb"] >= res.data[16]["oned_mb"]

    def test_cp_scaling_ratio_grows(self):
        res = run_critical_path_scaling(ks=(12, 24))
        assert res.data[24]["ratio"] > res.data[12]["ratio"]
