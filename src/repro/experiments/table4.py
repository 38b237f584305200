"""Tables 4 and 5: mean improvement over the cyclic mapping of all 25
row x column heuristic combinations, over the ten benchmark matrices
(P = 64 and 100) — in overall balance (Table 4) and in simulated parallel
performance (Table 5).

Improvement is relative to the cyclic/cyclic baseline, averaged over the
matrices, as in the paper. The paper's key observation: performance gains
(~15-25%) are much smaller than the balance gains (~35-55%) — once
remapped, load balance stops being the binding bottleneck. Each Table 5
cell runs the full fan-out simulation with domains on the
Paragon-calibrated machine.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.pipeline import PreparedProblem, prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import run_fanout
from repro.machine.params import PARAGON
from repro.mapping import (
    CartesianMap, balance_metrics, cyclic_map, heuristic_map, square_grid,
)
from repro.mapping.heuristics import HEURISTICS
from repro.matrices.registry import problem_names

#: Published Table 4 mean improvements (%), rows = row heuristic, cols =
#: column heuristic in order CY, DW, IN, DN, ID.
PAPER_TABLE4 = {
    64: {
        "CY": (0, 18, 17, 21, 17),
        "DW": (37, 34, 41, 47, 42),
        "IN": (19, 18, 21, 20, 24),
        "DN": (39, 37, 43, 43, 47),
        "ID": (39, 34, 45, 47, 43),
    },
    100: {
        "CY": (0, 19, 23, 22, 21),
        "DW": (39, 38, 56, 52, 50),
        "IN": (20, 24, 24, 31, 21),
        "DN": (41, 36, 50, 50, 49),
        "ID": (40, 37, 53, 54, 49),
    },
}

#: Published Table 5 mean improvements (%), same layout as Table 4.
PAPER_TABLE5 = {
    64: {
        "CY": (0, 13, 14, 15, 17),
        "DW": (21, 14, 18, 21, 19),
        "IN": (16, 13, 13, 15, 15),
        "DN": (18, 14, 18, 16, 18),
        "ID": (20, 14, 19, 19, 18),
    },
    100: {
        "CY": (0, 12, 19, 19, 20),
        "DW": (20, 16, 21, 19, 20),
        "IN": (20, 17, 11, 19, 19),
        "DN": (23, 15, 19, 15, 20),
        "ID": (24, 16, 20, 21, 18),
    },
}


def overall_balance(prep: PreparedProblem, cmap: CartesianMap) -> float:
    """Table 4's score of a mapping: its overall balance."""
    return balance_metrics(prep.workmodel, cmap).overall


def mflops(prep: PreparedProblem, cmap: CartesianMap) -> float:
    """Table 5's score of a mapping: the simulated Mflops of the fan-out
    with domains on the Paragon."""
    return run_fanout(prep.taskgraph, cmap, machine=PARAGON,
                      factor_ops=prep.factor_ops).mflops


def pair_grid(
    score, scale: str, P: int, matrices: tuple[str, ...]
) -> dict[tuple[str, str], float]:
    """Mean % improvement of ``score(prep, cmap)`` over the cyclic mapping
    for every (row, col) heuristic pair."""
    grid = square_grid(P)
    improvements: dict[tuple[str, str], list[float]] = {
        (rh, ch): [] for rh in HEURISTICS for ch in HEURISTICS
    }
    for name in matrices:
        prep = prepare_problem(name, scale)
        base = score(prep, cyclic_map(prep.partition.npanels, grid))
        for (rh, ch), got in improvements.items():
            cmap = heuristic_map(prep.workmodel, grid, rh, ch)
            got.append(pct(score(prep, cmap), base))
    return {k: float(np.mean(v)) for k, v in improvements.items()}


def _pair_table(score, scale, Ps, **labels) -> ExperimentResult:
    """One row per (P, row heuristic), one column per column heuristic."""
    data = {P: pair_grid(score, scale, P, problem_names("table1")) for P in Ps}
    return ExperimentResult(
        headers=["P", "Row heur."] + [f"col {c}" for c in HEURISTICS],
        rows=[[P, rh] + [means[(rh, ch)] for ch in HEURISTICS]
              for P, means in data.items() for rh in HEURISTICS],
        data=data,
        **labels,
    )


def run(scale: str = "medium", Ps: tuple[int, ...] = (64, 100)) -> ExperimentResult:
    return _pair_table(
        overall_balance, scale, Ps,
        experiment=f"Table 4: mean overall-balance improvement %, scale={scale}",
        paper_reference=PAPER_TABLE4,
        notes="Reference (paper): all remapped rows improve 34-56%.",
    )


def run_table5(scale: str = "medium", Ps: tuple[int, ...] = (64, 100)) -> ExperimentResult:
    return _pair_table(
        mflops, scale, Ps,
        experiment=f"Table 5: mean parallel-performance improvement %, scale={scale}",
        paper_reference=PAPER_TABLE5,
        notes=(
            "Expected shape: remapped rows gain ~15-25%, far less than the "
            "balance gains of Table 4."
        ),
    )
