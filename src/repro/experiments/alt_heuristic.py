"""§4.2(a): the processor-aware alternative row heuristic.

Paper finding: 10-15% better overall balance than the basic heuristic, but
no realized performance improvement — confirming that after the basic
remapping, load balance is no longer the binding bottleneck.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import run_fanout
from repro.machine.params import PARAGON
from repro.mapping import (
    balance_metrics,
    heuristic_map,
    processor_aware_row_map,
    square_grid,
)
from repro.matrices.registry import problem_names

HEADERS = (
    "Matrix",
    "Basic balance",
    "Alt balance",
    "Bal. improv %",
    "Basic Mflops",
    "Alt Mflops",
    "Perf improv %",
)


def run(scale: str = "medium", P: int = 64, machine=PARAGON) -> ExperimentResult:
    grid = square_grid(P)
    rows = []
    bal_improvs, perf_improvs = [], []
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        basic = heuristic_map(prep.workmodel, grid, "DW", "CY")
        alt = processor_aware_row_map(prep.workmodel, grid, "CY", "DW")
        bal_b = balance_metrics(prep.workmodel, basic).overall
        bal_a = balance_metrics(prep.workmodel, alt).overall
        perf_b = run_fanout(
            prep.taskgraph, basic, machine=machine,
            factor_ops=prep.factor_ops,
        ).mflops
        perf_a = run_fanout(
            prep.taskgraph, alt, machine=machine,
            factor_ops=prep.factor_ops,
        ).mflops
        bal_improvs.append(pct(bal_a, bal_b))
        perf_improvs.append(pct(perf_a, perf_b))
        rows.append(
            (name, bal_b, bal_a, bal_improvs[-1], perf_b, perf_a, perf_improvs[-1])
        )
    return ExperimentResult(
        experiment=f"Sec. 4.2(a): processor-aware row heuristic (P={P}, scale={scale})",
        headers=HEADERS,
        rows=rows,
        data={
            "mean_balance_improvement": float(np.mean(bal_improvs)),
            "mean_performance_improvement": float(np.mean(perf_improvs)),
        },
        notes=(
            "Paper: balance improves a further 10-15%, performance does not."
        ),
    )
