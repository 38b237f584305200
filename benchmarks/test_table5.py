"""Regenerates Table 5: mean simulated-performance improvement, 5x5
heuristics, full fan-out simulation with domains (the heavyweight bench).

Shape assertions: remapping helps, but by less than it helps balance
(Table 4) — the paper's central observation.
"""

import numpy as np

from repro.experiments.table4 import (
    mflops, overall_balance, pair_grid, run_table5,
)
from repro.matrices.registry import problem_names


def test_table5(run_experiment, scale):
    res = run_experiment(run_table5, scale, floatfmt="{:.0f}")
    for P, means in res.data.items():
        assert means[("CY", "CY")] == 0.0
        remapped = [means[(rh, "CY")] for rh in ("DW", "DN", "ID")]
        assert np.mean(remapped) > 0  # heuristics win on average


def test_performance_gains_smaller_than_balance_gains(scale, benchmark):
    """Paper §4.1: Table 5 improvements are much smaller than Table 4's."""
    matrices = problem_names("table1")

    def compute():
        bal = pair_grid(overall_balance, scale, 64, matrices)
        perf = pair_grid(mflops, scale, 64, matrices)
        return bal, perf

    bal, perf = benchmark.pedantic(compute, rounds=1, iterations=1)
    keys = [(rh, ch) for rh in ("DW", "DN", "ID") for ch in ("CY", "DW", "ID")]
    mean_bal = np.mean([bal[k] for k in keys])
    mean_perf = np.mean([perf[k] for k in keys])
    print(f"\nmean balance improvement {mean_bal:.0f}% "
          f"vs mean performance improvement {mean_perf:.0f}%")
    assert mean_bal > mean_perf
