"""§5 (final question): could this sparse block approach beat specialized
dense solvers that use cyclic mappings?

Specialized distributed dense Cholesky (the LINPACK-style codes of [15])
uses a 2-D cyclic mapping — exactly the configuration the paper shows is
load-imbalanced. This experiment runs our fan-out engine on the dense
benchmark matrices under (a) the cyclic mapping (the "specialized dense
code" configuration), (b) cyclic on a relatively-prime grid, and (c) the
remapping heuristic, quantifying how much the heuristic's answer to the
paper's closing question is worth on dense problems.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult, pct
from repro.fanout import block_owners, simulate_fanout
from repro.machine.params import PARAGON
from repro.mapping import best_grid, cyclic_map, heuristic_map, square_grid

DENSE_PROBLEMS = ("DENSE1024", "DENSE2048", "DENSE4096")


def run(
    scale: str = "medium",
    P: int = 64,
    machine=PARAGON,
) -> ExperimentResult:
    sq = square_grid(P)
    pg = best_grid(P - 1)
    rows = []
    data = {}
    for name in DENSE_PROBLEMS:
        prep = prepare_problem(name, scale)
        tg, wm = prep.taskgraph, prep.workmodel

        def sim(cmap):
            # Every block where the map puts it: a dense matrix is one
            # giant supernode, with no domain portion to plan.
            return simulate_fanout(tg, block_owners(tg, cmap), cmap.grid.P,
                                   machine=machine, factor_ops=prep.factor_ops)

        cyc = sim(cyclic_map(tg.npanels, sq))
        prime = sim(cyclic_map(tg.npanels, pg))
        heur = sim(heuristic_map(wm, sq, "ID", "CY"))
        gain = pct(heur.mflops, cyc.mflops)
        data[name] = {
            "cyclic": cyc.mflops,
            "prime": prime.mflops,
            "heuristic": heur.mflops,
            "gain_pct": gain,
        }
        rows.append((name, cyc.mflops, prime.mflops, heur.mflops, gain))
    return ExperimentResult(
        experiment=f"Sec. 5: dense problems, cyclic vs remapped (P={P}, scale={scale})",
        headers=("Matrix", "Cyclic Mflops", "Prime-grid", "Heuristic",
                 "Heur gain %"),
        rows=rows,
        data=data,
        notes=(
            "The paper asks whether heuristically-remapped block sparse "
            "codes could outrun cyclic-mapped dense codes; the gain column "
            "is the answer within this model."
        ),
    )
