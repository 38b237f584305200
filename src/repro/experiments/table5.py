"""Table 5: mean improvement in simulated parallel performance, all 25
row x column heuristic combinations, P = 64 and 100.

The paper's key observation: performance gains (~15-25%) are much smaller
than the balance gains (~35-55%) — once remapped, load balance stops being
the binding bottleneck. Each cell runs the full fan-out simulation with
domains on the Paragon-calibrated machine.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import run_fanout
from repro.machine.params import PARAGON
from repro.mapping import cyclic_map, heuristic_map, square_grid
from repro.mapping.heuristics import HEURISTICS
from repro.matrices.registry import problem_names

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


def performance_grid(
    scale: str,
    P: int,
    matrices: tuple[str, ...],
    machine=PARAGON,
) -> dict[tuple[str, str], float]:
    """Mean % Mflops improvement over cyclic for every heuristic pair."""
    grid = square_grid(P)
    improvements: dict[tuple[str, str], list[float]] = {
        (rh, ch): [] for rh in HEURISTICS for ch in HEURISTICS
    }
    for name in matrices:
        prep = prepare_problem(name, scale)
        base = run_fanout(
            prep.taskgraph,
            cyclic_map(prep.partition.npanels, grid),
            machine=machine,
            factor_ops=prep.factor_ops,
        ).mflops
        for rh in HEURISTICS:
            for ch in HEURISTICS:
                cmap = heuristic_map(prep.workmodel, grid, rh, ch)
                res = run_fanout(
                    prep.taskgraph,
                    cmap,
                    machine=machine,
                    factor_ops=prep.factor_ops,
                )
                improvements[(rh, ch)].append(pct(res.mflops, base))
    return {k: float(np.mean(v)) for k, v in improvements.items()}


def run(
    scale: str = "medium",
    Ps: tuple[int, ...] = (64, 100),
    matrices: tuple[str, ...] | None = None,
) -> ExperimentResult:
    matrices = matrices or problem_names("table1")
    headers = ["P", "Row heur."] + [f"col {c}" for c in HEURISTICS]
    rows = []
    data = {}
    for P in Ps:
        means = performance_grid(scale, P, matrices)
        data[P] = means
        for rh in HEURISTICS:
            rows.append([P, rh] + [means[(rh, ch)] for ch in HEURISTICS])
    return ExperimentResult(
        experiment=f"Table 5: mean parallel-performance improvement %, scale={scale}",
        headers=headers,
        rows=rows,
        data=data,
        paper_reference=PAPER_TABLE5,
        notes=(
            "Expected shape: remapped rows gain ~15-25%, far less than the "
            "balance gains of Table 4."
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(run(*(sys.argv[1:] or ["medium"])).render("{:.0f}"))
