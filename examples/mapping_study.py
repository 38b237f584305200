#!/usr/bin/env python
"""Mapping anatomy: why cyclic fails and what each heuristic fixes.

Reproduces the paper's §3/§4 reasoning end to end on one matrix:

* shows workI (block-row work) growing with row index — the cause of row
  imbalance under cyclic row mapping;
* shows diagonal concentration — the cause of diagonal imbalance for any
  symmetric Cartesian mapping;
* runs all 25 row x column heuristic combinations and prints the balance
  and simulated-performance matrix (a one-matrix Table 4 + Table 5);
* demonstrates the relatively-prime-grid shortcut.

Run:  python examples/mapping_study.py [problem] [scale]
      e.g. python examples/mapping_study.py BCSSTK33 medium
"""

import sys

import numpy as np

import repro
from repro.experiments.pipeline import prepare_problem
from repro.mapping.heuristics import HEURISTICS


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "BCSSTK33"
    scale = sys.argv[2] if len(sys.argv) > 2 else "medium"
    prep = prepare_problem(name, scale)
    wm, part, tg, sf = prep.workmodel, prep.partition, prep.taskgraph, prep.symbolic
    print(f"{name} ({scale}): n={prep.problem.n}, N={part.npanels} panels")

    # --- 1. row work grows with row index --------------------------------
    N = part.npanels
    thirds = np.array_split(wm.workI, 3)
    print("\nblock-row work by matrix third (cause of cyclic row imbalance):")
    for label, chunk in zip(("top", "middle", "bottom"), thirds):
        print(f"  {label:>6s} third: mean work {chunk.mean() / 1e6:8.2f}M")

    # --- 2. diagonal concentration ---------------------------------------
    grid = repro.square_grid(64)
    cyc = repro.cyclic_map(N, grid)
    diag_work = wm.work[wm.dest_I == wm.dest_J].sum()
    sub = wm.dest_I == wm.dest_J + 1
    subdiag_work = wm.work[sub].sum()
    print(
        f"\ndiagonal blocks hold {100 * diag_work / wm.total_work:.0f}% and "
        f"first subdiagonal {100 * subdiag_work / wm.total_work:.0f}% of all "
        f"work,\nbut cyclic maps them onto only {grid.Pr} of {grid.P} "
        f"processors (the grid diagonal)."
    )

    # --- 3. the full 5x5 study -------------------------------------------
    base_perf = repro.run_fanout(tg, cyc, factor_ops=sf.factor_ops).mflops
    base_bal = repro.balance_metrics(wm, cyc).overall
    print(f"\ncyclic baseline: balance {base_bal:.2f}, {base_perf:.0f} Mflops")
    print("\nrows = row heuristic, cols = column heuristic")
    print("cell = balance improvement % / performance improvement %")
    header = "      " + "".join(f"{c:>12s}" for c in HEURISTICS)
    print(header)
    for rh in HEURISTICS:
        cells = []
        for ch in HEURISTICS:
            m = repro.heuristic_map(wm, grid, rh, ch)
            bal = repro.balance_metrics(wm, m).overall
            perf = repro.run_fanout(tg, m, factor_ops=sf.factor_ops).mflops
            cells.append(
                f"{100 * (bal / base_bal - 1):+4.0f}/{100 * (perf / base_perf - 1):+4.0f}"
            )
        print(f"{rh:>5s} " + "".join(f"{c:>12s}" for c in cells))

    # --- 4. the prime-grid shortcut --------------------------------------
    g63 = repro.best_grid(63)
    prime = repro.run_fanout(
        tg, repro.cyclic_map(N, g63), factor_ops=sf.factor_ops,
    ).mflops
    print(
        f"\ncyclic on a relatively-prime {g63} grid (63 procs): "
        f"{prime:.0f} Mflops = {100 * (prime / base_perf - 1):+.0f}% vs 64-proc"
        " cyclic\n(one fewer processor, no remapping — the Sec. 4.2 trick)"
    )


if __name__ == "__main__":
    main()
