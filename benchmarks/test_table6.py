"""Regenerates Table 6: large benchmark matrix statistics."""

from repro.experiments.table1 import run_table6


def test_table6(run_experiment, scale):
    res = run_experiment(run_table6, scale, floatfmt="{:.1f}")
    assert len(res.rows) == 4
