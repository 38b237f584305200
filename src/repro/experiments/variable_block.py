"""§5: variable block size study.

The paper's (initially counterintuitive) finding: varying the block size
between the early and late stages of the factorization does **not** improve
load imbalance, and it **reduces** the parallelism available — the fixed-B
partition with a remapping heuristic wins.

This experiment compares, per matrix:

* fixed B = 48 (the paper's choice),
* fixed B = 24 (the stage-varying policy's late B, used near the roots),
* stage-varying B (large early / small late),

under the same ID/CY heuristic mapping, reporting overall balance, the
critical-path bound on parallelism, and simulated Mflops. The fixed-24
column separates "smaller blocks near the root" from "blocks that vary".
"""

from __future__ import annotations

from repro.analysis import critical_path
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.blocks.variable import VariableBlockPartition, stage_varying_policy
from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.fanout import TaskGraph, run_fanout
from repro.machine.params import PARAGON
from repro.mapping import balance_metrics, heuristic_map, square_grid
from repro.matrices.registry import problem_names

#: The stage-varying policy's late B, also run as a fixed B.
LATE_B = 24

HEADERS = (
    "Matrix",
    "B=48 bal",
    "B=24 bal",
    "Varying bal",
    "B=48 CP-eff",
    "B=24 CP-eff",
    "Varying CP-eff",
    "B=48 Mflops",
    "B=24 Mflops",
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

        var_part = VariableBlockPartition(sf, stage_varying_policy(late=LATE_B))
        var_wm = WorkModel(BlockStructure(var_part))
        var_tg = TaskGraph(var_wm)
        small_wm = WorkModel(BlockStructure(BlockPartition(sf, LATE_B)))
        small_tg = TaskGraph(small_wm)

        runs = {
            "fixed": _evaluate(prep.workmodel, prep.taskgraph, grid, machine,
                               prep.factor_ops, P),
            "fixed24": _evaluate(small_wm, small_tg, grid, machine,
                                 prep.factor_ops, P),
            "varying": _evaluate(var_wm, var_tg, grid, machine,
                                 prep.factor_ops, P),
        }
        data[name] = runs
        rows.append((name, *(r[key] for key in ("balance", "cp_eff", "mflops")
                             for r in runs.values())))
    return ExperimentResult(
        experiment=f"Sec. 5: stage-varying block size (P={P}, scale={scale})",
        headers=HEADERS,
        rows=rows,
        data=data,
        notes=(
            "Paper: stage-varying B does not improve balance and reduces "
            "parallelism (lower CP-bound efficiency). The varying B runs "
            "the late B (24) at and near the roots, where balance is "
            "decided, so compare it with fixed B = 24, which has the same "
            "root blocks: what it gains over B = 48 is the smaller root B. "
            "Each DENSE matrix is one supernode, the root, so it runs the "
            "single late B."
        ),
    )


def _evaluate(wm, tg, grid, machine, factor_ops, P):
    cmap = heuristic_map(wm, grid, "ID", "CY")
    bal = balance_metrics(wm, cmap).overall
    cp = critical_path(tg, machine)
    res = run_fanout(tg, cmap, machine=machine, factor_ops=factor_ops)
    return {
        "npanels": wm.structure.partition.npanels,
        "balance": bal,
        "cp_eff": cp.max_efficiency(P),
        "mflops": res.mflops,
    }
