"""§5 discussion experiments: critical paths, subtree-to-subcube mapping,
and the dynamic-scheduling refinement.

Three studies:

* **critical path** — after remapping, how much performance headroom does
  the task DAG still allow? (Paper: ~50% for BCSSTK15 and ~30% for BCSSTK31
  at P = 100.)
* **subtree-to-subcube** — the communication-optimized column mapping cuts
  volume up to ~30% but balances worse; on a high-bandwidth machine it loses.
* **priority scheduling** — the paper proposes priority-sensitive dynamic
  scheduling as future work; the simulator's priority mode implements it
  (earliest destination column first).
"""

from __future__ import annotations

from repro.analysis import communication_volume, critical_path
from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import (
    block_owners, plan_block_owners, run_fanout, simulate_fanout,
)
from repro.machine.params import PARAGON
from repro.mapping import (
    balance_metrics,
    heuristic_map,
    square_grid,
    subtree_to_subcube_column_map,
)
from repro.matrices.registry import problem_names


def run_critical_path(
    scale: str = "medium",
    P: int = 100,
    matrices: tuple[str, ...] = ("BCSSTK15", "BCSSTK31"),
    machine=PARAGON,
) -> ExperimentResult:
    grid = square_grid(P)
    rows = []
    data = {}
    for name in matrices:
        prep = prepare_problem(name, scale)
        cp = critical_path(prep.taskgraph, machine)
        res = run_fanout(
            prep.taskgraph,
            heuristic_map(prep.workmodel, grid, "ID", "CY"),
            machine=machine,
            factor_ops=prep.factor_ops,
        )
        headroom = pct(cp.max_efficiency(P), res.efficiency)
        data[name] = {
            "achieved_efficiency": res.efficiency,
            "cp_max_efficiency": cp.max_efficiency(P),
            "headroom_pct": headroom,
        }
        rows.append(
            (name, P, res.efficiency, cp.max_efficiency(P), headroom)
        )
    return ExperimentResult(
        experiment=f"Sec. 5: critical-path headroom (scale={scale})",
        headers=("Matrix", "P", "Achieved eff.", "CP-bound eff.", "Headroom %"),
        rows=rows,
        data=data,
        notes="Paper: ~50% headroom for BCSSTK15, ~30% for BCSSTK31 at P=100.",
    )


def run_subcube(
    scale: str = "medium", P: int = 64, machine=PARAGON
) -> ExperimentResult:
    grid = square_grid(P)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        heur = heuristic_map(prep.workmodel, grid, "ID", "CY")
        sub = subtree_to_subcube_column_map(prep.workmodel, grid, "ID")
        own_h = block_owners(prep.taskgraph, heur)
        own_s = block_owners(prep.taskgraph, sub)
        comm_h = communication_volume(prep.taskgraph, own_h, machine)
        comm_s = communication_volume(prep.taskgraph, own_s, machine)
        bal_h = balance_metrics(prep.workmodel, heur).overall
        bal_s = balance_metrics(prep.workmodel, sub).overall
        perf_h = simulate_fanout(
            prep.taskgraph, own_h, P, machine=machine,
            factor_ops=prep.factor_ops,
        ).mflops
        perf_s = simulate_fanout(
            prep.taskgraph, own_s, P, machine=machine,
            factor_ops=prep.factor_ops,
        ).mflops
        vol_delta = pct(comm_s.bytes, comm_h.bytes)
        data[name] = {
            "volume_change_pct": vol_delta,
            "balance_heuristic": bal_h,
            "balance_subcube": bal_s,
            "perf_change_pct": pct(perf_s, perf_h),
        }
        rows.append(
            (name, comm_h.bytes / 1e6, comm_s.bytes / 1e6, vol_delta,
             bal_h, bal_s, pct(perf_s, perf_h))
        )
    return ExperimentResult(
        experiment=f"Sec. 5: subtree-to-subcube columns (P={P}, scale={scale})",
        headers=("Matrix", "Heur MB", "Subcube MB", "Vol change %",
                 "Heur bal", "Subcube bal", "Perf change %"),
        rows=rows,
        data=data,
        notes=(
            "Paper: volume drops (up to 30%), balance degrades to cyclic "
            "levels, net performance is lower on the Paragon."
        ),
    )


def run_priority_scheduling(
    scale: str = "medium",
    P: int = 64,
    machine=PARAGON,
    policies: tuple[str, ...] = ("fifo", "column", "depth", "bottom_level"),
) -> ExperimentResult:
    """Answer the paper's open question within the model: does priority-
    sensitive dynamic scheduling beat the purely data-driven (FIFO) order?

    Policies: FIFO (the paper's code), earliest-destination-column,
    deepest-destination, and bottom-level (critical-path/HLF) scheduling.
    """
    from repro.fanout.priorities import task_priorities

    grid = square_grid(P)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        cmap = heuristic_map(prep.workmodel, grid, "ID", "CY")
        owners = plan_block_owners(prep.taskgraph, cmap)
        depth = prep.partition.panel_depths()
        mflops = {}
        for policy in policies:
            prio = task_priorities(prep.taskgraph, policy, depth=depth,
                                   machine=machine)
            res = simulate_fanout(
                prep.taskgraph, owners, grid.P, machine=machine,
                priorities=prio, factor_ops=prep.factor_ops,
            )
            mflops[policy] = res.mflops
        base = mflops["fifo"]
        data[name] = {pol: pct(v, base) for pol, v in mflops.items()}
        rows.append((name, *[mflops[pol] for pol in policies]))
    return ExperimentResult(
        experiment=f"Sec. 5 (future work): scheduling policies (P={P}, scale={scale})",
        headers=("Matrix", *[f"{p} Mflops" for p in policies]),
        rows=rows,
        data=data,
        notes=(
            "The paper proposed priority-sensitive scheduling as future "
            "work; bottom_level is classic critical-path (HLF) scheduling."
        ),
    )
