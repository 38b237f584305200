"""Figure 1: parallel efficiency and overall balance of the block fan-out
method with the cyclic mapping, per benchmark matrix, P = 64 and 100.

The figure's message: overall balance is an upper bound on efficiency,
efficiencies are generally low (16-58% in the paper), and the bound is a
meaningful but imperfect predictor.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.fanout import plan_block_owners, simulate_fanout
from repro.machine.params import PARAGON
from repro.mapping import cyclic_map, square_grid
from repro.mapping.balance import overall_balance_from_owners
from repro.matrices.registry import problem_names
from repro.util.ascii_chart import bar_chart

HEADERS = ("Matrix", "P", "Efficiency", "Overall balance")


def run(
    scale: str = "medium",
    Ps: tuple[int, ...] = (64, 100),
    machine=PARAGON,
) -> ExperimentResult:
    rows = []
    series: dict[int, list[tuple[str, float, float]]] = {P: [] for P in Ps}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        for P in Ps:
            grid = square_grid(P)
            cmap = cyclic_map(prep.partition.npanels, grid)
            owners = plan_block_owners(prep.taskgraph, cmap)
            bal = overall_balance_from_owners(prep.workmodel, owners, P)
            res = simulate_fanout(
                prep.taskgraph, owners, P, machine=machine,
                factor_ops=prep.factor_ops,
            )
            rows.append((name, P, res.efficiency, bal))
            series[P].append((name, res.efficiency, bal))
    result = ExperimentResult(
        experiment=f"Figure 1: efficiency and overall balance, cyclic (scale={scale})",
        headers=HEADERS,
        rows=rows,
        data=series,
        notes="Invariant: efficiency <= overall balance for every point.",
    )
    charts = []
    for P, pts in series.items():
        chart = bar_chart(
            [name for name, _, _ in pts],
            {
                "efficiency": [e for _, e, _ in pts],
                "balance": [b for _, _, b in pts],
            },
            width=40,
            vmax=1.0,
        )
        charts.append(f"P = {P}\n{chart}")
    result.notes += "\n\n" + "\n\n".join(charts)
    return result
