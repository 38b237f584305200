"""§5: variable block size study.

The paper's (initially counterintuitive) finding: varying the block size
between the early and late stages of the factorization does **not** improve
load imbalance, and it **reduces** the parallelism available — the fixed-B
partition with a remapping heuristic wins.

This experiment compares, per matrix:

* fixed B = 48 (the paper's choice),
* stage-varying B (large early / small late),

under the same ID/CY heuristic mapping, reporting overall balance, the
critical-path bound on parallelism, and simulated Mflops.
"""

from __future__ import annotations

from repro.analysis import critical_path
from repro.blocks import BlockStructure, WorkModel
from repro.blocks.variable import VariableBlockPartition, stage_varying_policy
from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.fanout import TaskGraph, run_fanout
from repro.machine.params import PARAGON
from repro.mapping import balance_metrics, heuristic_map, square_grid
from repro.matrices.registry import problem_names

HEADERS = (
    "Matrix",
    "Fixed bal",
    "Varying bal",
    "Fixed CP-eff",
    "Varying CP-eff",
    "Fixed Mflops",
    "Varying Mflops",
)


def run(
    scale: str = "medium",
    P: int = 64,
    machine=PARAGON,
    matrices: tuple[str, ...] | None = None,
) -> ExperimentResult:
    grid = square_grid(P)
    rows = []
    data = {}
    for name in matrices or problem_names("table1"):
        prep = prepare_problem(name, scale)
        sf = prep.symbolic

        var_part = VariableBlockPartition(sf, stage_varying_policy())
        var_wm = WorkModel(BlockStructure(var_part))
        var_tg = TaskGraph(var_wm)

        fixed = _evaluate(prep.workmodel, prep.taskgraph, grid, machine,
                          prep.factor_ops, P)
        varying = _evaluate(var_wm, var_tg, grid, machine, prep.factor_ops, P)
        data[name] = {"fixed": fixed, "varying": varying}
        rows.append(
            (
                name,
                fixed["balance"], varying["balance"],
                fixed["cp_eff"], varying["cp_eff"],
                fixed["mflops"], varying["mflops"],
            )
        )
    return ExperimentResult(
        experiment=f"Sec. 5: stage-varying block size (P={P}, scale={scale})",
        headers=HEADERS,
        rows=rows,
        data=data,
        notes=(
            "Paper: stage-varying B does not improve balance and reduces "
            "parallelism (lower CP-bound efficiency). Each DENSE matrix is "
            "one supernode, the root, so it runs the single late B. The "
            "late B (24) is half the fixed B (48), so the varying column "
            "also has smaller blocks near the root."
        ),
    )


def _evaluate(wm, tg, grid, machine, factor_ops, P):
    cmap = heuristic_map(wm, grid, "ID", "CY")
    bal = balance_metrics(wm, cmap).overall
    cp = critical_path(tg, machine)
    res = run_fanout(tg, cmap, machine=machine, factor_ops=factor_ops)
    return {
        "balance": bal,
        "cp_eff": cp.max_efficiency(P),
        "mflops": res.mflops,
    }


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(run(*(sys.argv[1:] or ["medium"])).render())
