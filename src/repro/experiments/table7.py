"""Table 7: performance (Mflops) on 144 and 196 nodes — cyclic vs the
increasing-depth-rows / cyclic-columns heuristic mapping.

The paper's headline result: the heuristic wins by roughly 20% on the large
problems; absolute Paragon Mflops are included for shape comparison.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import run_fanout
from repro.machine.params import PARAGON
from repro.mapping import cyclic_map, heuristic_map, square_grid
from repro.matrices.registry import problem_names

#: Published Table 7: {P: {matrix: (cyclic Mflops, heuristic Mflops, %)}}.
PAPER_TABLE7 = {
    144: {
        "CUBE35": (1788, 2207, 23),
        "CUBE40": (2093, 2384, 14),
        "DENSE4096": (3587, 4156, 16),
        "BCSSTK31": (1161, 1322, 14),
        "COPTER2": (1693, 1779, 5),
        "10FLEET": (2027, 2246, 11),
    },
    196: {
        "CUBE35": (2019, 2456, 22),
        "CUBE40": (2515, 3187, 27),
        "DENSE4096": (4489, 5237, 17),
        "BCSSTK31": (1361, 1709, 26),
        "COPTER2": (1959, 2312, 18),
        "10FLEET": (2488, 2722, 9),
    },
}

HEADERS = (
    "P",
    "Matrix",
    "Cyclic Mflops",
    "Heuristic Mflops",
    "Improv %",
    "Paper cyc",
    "Paper heur",
    "Paper %",
)


def run(
    scale: str = "medium",
    Ps: tuple[int, ...] = (144, 196),
    machine=PARAGON,
) -> ExperimentResult:
    rows = []
    data = {}
    for P in Ps:
        grid = square_grid(P)
        for name in problem_names("table7"):
            prep = prepare_problem(name, scale)
            base = run_fanout(
                prep.taskgraph,
                cyclic_map(prep.partition.npanels, grid),
                machine=machine,
                factor_ops=prep.factor_ops,
            )
            heur = run_fanout(
                prep.taskgraph,
                heuristic_map(prep.workmodel, grid, "ID", "CY"),
                machine=machine,
                factor_ops=prep.factor_ops,
            )
            improv = pct(heur.mflops, base.mflops)
            paper = PAPER_TABLE7.get(P, {}).get(name, ("-", "-", "-"))
            data[(P, name)] = (base.mflops, heur.mflops, improv)
            rows.append(
                (P, name, base.mflops, heur.mflops, improv, *paper)
            )
    return ExperimentResult(
        experiment=f"Table 7: large problems, cyclic vs ID/CY heuristic (scale={scale})",
        headers=HEADERS,
        rows=rows,
        data=data,
        paper_reference=PAPER_TABLE7,
        notes="Expected shape: heuristic wins on every problem, ~10-25%.",
    )
