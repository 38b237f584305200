"""Ablations of design choices called out in DESIGN.md.

* **block size** — B trades single-node efficiency against concurrency
  (§3.2 chose 48; §5 reports that stage-varying B does not help balance);
* **domains** — how much communication the domain portion saves (§2.3);
* **communication-free machine** — isolates load imbalance from
  communication, verifying the balance statistic bounds efficiency tightly.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import (
    block_owners, plan_block_owners, run_fanout, simulate_fanout,
)
from repro.machine.params import PARAGON, ZERO_COMM, MachineParams
from repro.mapping import balance_metrics, heuristic_map, square_grid
from repro.mapping.balance import overall_balance_from_owners


def run_block_size(
    scale: str = "medium",
    P: int = 64,
    matrix: str = "BCSSTK31",
    sizes: tuple[int, ...] = (16, 24, 48, 96),
    machine=PARAGON,
) -> ExperimentResult:
    grid = square_grid(P)
    rows = []
    data = {}
    for B in sizes:
        prep = prepare_problem(matrix, scale, block_size=B)
        cmap = heuristic_map(prep.workmodel, grid, "ID", "CY")
        res = run_fanout(
            prep.taskgraph, cmap, machine=machine, factor_ops=prep.factor_ops,
        )
        bal = balance_metrics(prep.workmodel, cmap).overall
        data[B] = {"mflops": res.mflops, "balance": bal,
                   "npanels": prep.partition.npanels}
        rows.append((B, prep.partition.npanels, bal, res.mflops))
    return ExperimentResult(
        experiment=f"Ablation: block size sweep, {matrix} (P={P}, scale={scale})",
        headers=("B", "Panels", "Overall balance", "Mflops"),
        rows=rows,
        data=data,
        notes="B trades per-op overhead against concurrency; 48 was the paper's pick.",
    )


def run_domains_ablation(
    scale: str = "medium", P: int = 64, machine=PARAGON
) -> ExperimentResult:
    from repro.matrices.registry import problem_names

    grid = square_grid(P)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        cmap = heuristic_map(prep.workmodel, grid, "ID", "CY")
        with_dom = run_fanout(
            prep.taskgraph, cmap, machine=machine, factor_ops=prep.factor_ops,
        )
        without = simulate_fanout(  # every block where cmap puts it
            prep.taskgraph, block_owners(prep.taskgraph, cmap), P,
            machine=machine, factor_ops=prep.factor_ops,
        )
        saved = pct(without.comm_bytes, max(1, with_dom.comm_bytes))
        data[name] = {
            "bytes_with": with_dom.comm_bytes,
            "bytes_without": without.comm_bytes,
            "mflops_with": with_dom.mflops,
            "mflops_without": without.mflops,
        }
        rows.append(
            (name, with_dom.comm_bytes / 1e6, without.comm_bytes / 1e6,
             saved, with_dom.mflops, without.mflops)
        )
    return ExperimentResult(
        experiment=f"Ablation: domain decomposition (P={P}, scale={scale})",
        headers=("Matrix", "MB w/ domains", "MB w/o", "Extra vol %",
                 "Mflops w/", "Mflops w/o"),
        rows=rows,
        data=data,
        notes="Domains exist to cut communication volume (Sec. 2.3).",
    )


def run_zero_comm(
    scale: str = "medium", P: int = 64
) -> ExperimentResult:
    """On a zero-communication machine, efficiency should approach the
    overall-balance bound (remaining gap = critical path + scheduling)."""
    from repro.matrices.registry import problem_names

    grid = square_grid(P)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        cmap = heuristic_map(prep.workmodel, grid, "ID", "CY")
        owners = plan_block_owners(prep.taskgraph, cmap)
        bound = overall_balance_from_owners(prep.workmodel, owners, P)
        res = simulate_fanout(
            prep.taskgraph, owners, P, machine=ZERO_COMM,
            factor_ops=prep.factor_ops,
        )
        data[name] = {"efficiency": res.efficiency, "bound": bound}
        rows.append((name, res.efficiency, bound, bound - res.efficiency))
    return ExperimentResult(
        experiment=f"Ablation: zero-communication machine (P={P}, scale={scale})",
        headers=("Matrix", "Efficiency", "Balance bound", "Gap"),
        rows=rows,
        data=data,
        notes="efficiency <= bound always; the gap is scheduling/critical path.",
    )


def run_contention(
    scale: str = "medium", P: int = 64
) -> ExperimentResult:
    """Receive-side NIC contention: how robust is the heuristic's win when
    column broadcasts congest the receivers? (A model knob the Paragon's
    contention-free abstraction hides.)"""
    from repro.matrices.registry import problem_names

    grid = square_grid(P)
    congested = MachineParams(rx_bandwidth=PARAGON.bandwidth)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        cyc_map = heuristic_map(prep.workmodel, grid, "CY", "CY")
        heu_map = heuristic_map(prep.workmodel, grid, "ID", "CY")
        cyc = run_fanout(prep.taskgraph, cyc_map, machine=congested,
                         factor_ops=prep.factor_ops)
        heu = run_fanout(prep.taskgraph, heu_map, machine=congested,
                         factor_ops=prep.factor_ops)
        free = run_fanout(prep.taskgraph, heu_map, machine=PARAGON,
                          factor_ops=prep.factor_ops)
        gain = pct(heu.mflops, cyc.mflops)
        slowdown = pct(free.mflops, heu.mflops)
        data[name] = {"gain_under_contention": gain,
                      "contention_cost_pct": slowdown}
        rows.append((name, cyc.mflops, heu.mflops, gain, slowdown))
    return ExperimentResult(
        experiment=f"Ablation: receiver contention (P={P}, scale={scale})",
        headers=("Matrix", "Cyclic Mflops", "Heur Mflops",
                 "Heur gain %", "Contention cost %"),
        rows=rows,
        data=data,
        notes="The remapping win should survive receiver congestion.",
    )
