#!/usr/bin/env python
"""Domain scenario: factoring a structural-analysis stiffness matrix.

The paper's irregular benchmarks (BCSSTK*) are finite-element stiffness
matrices from structural engineering — the workload its introduction
motivates. This example builds a synthetic 3-D frame with three unknowns per
node, orders it with multiple minimum degree (as the paper does for
irregular problems), and studies how the mapping choice changes the balance
statistics and the simulated factorization rate as the machine grows.

Run:  python examples/structural_analysis.py [n_equations]
"""

import sys

import numpy as np

import repro


def prepare(n_equations: int):
    problem = repro.bcsstk_like_matrix(n_equations, dof=3, seed=42)
    ordering = repro.order_problem(problem, "mmd")
    sf = repro.symbolic_factor(problem.A, ordering)
    partition = repro.BlockPartition(sf, block_size=48)
    wm = repro.WorkModel(repro.BlockStructure(partition))
    return problem, sf, partition, wm


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    problem, sf, partition, wm = prepare(n)
    print(
        f"stiffness matrix: n={problem.n}, nnz(A)={problem.nnz:,}, "
        f"nnz(L)={sf.factor_nnz:,}, ops={sf.factor_ops / 1e6:.0f}M"
    )

    # --- balance anatomy on 64 processors (the paper's Table 2/3 view) ---
    grid = repro.square_grid(64)
    print(f"\nbalance anatomy on a {grid} grid:")
    print(f"{'mapping':>12s} {'row':>6s} {'col':>6s} {'diag':>6s} {'overall':>8s}")
    maps = {
        "cyclic": repro.cyclic_map(partition.npanels, grid),
        "DW/DW": repro.heuristic_map(wm, grid, "DW", "DW"),
        "ID/CY": repro.heuristic_map(wm, grid, "ID", "CY"),
        "procaware": repro.processor_aware_row_map(wm, grid),
    }
    for label, cmap in maps.items():
        bal = repro.balance_metrics(wm, cmap)
        d = f"{bal.diagonal:6.2f}" if bal.diagonal is not None else "   n/a"
        print(
            f"{label:>12s} {bal.row:6.2f} {bal.column:6.2f} {d} "
            f"{bal.overall:8.2f}"
        )

    # --- scaling study: Mflops vs machine size, cyclic vs heuristic ------
    tg = repro.TaskGraph(wm)
    print("\nsimulated factorization rate (Mflops):")
    print(f"{'P':>5s} {'cyclic':>9s} {'heuristic':>10s} {'gain':>6s}")
    for P in (16, 36, 64, 100):
        grid = repro.square_grid(P)
        cyc = repro.run_fanout(
            tg, repro.cyclic_map(partition.npanels, grid),
            factor_ops=sf.factor_ops,
        ).mflops
        heur = repro.run_fanout(
            tg, repro.heuristic_map(wm, grid, "ID", "CY"),
            factor_ops=sf.factor_ops,
        ).mflops
        print(f"{P:5d} {cyc:9.1f} {heur:10.1f} {100 * (heur / cyc - 1):+5.0f}%")

    # --- where does the remaining time go? -------------------------------
    grid = repro.square_grid(64)
    cp = repro.critical_path(tg)
    res = repro.run_fanout(
        tg, repro.heuristic_map(wm, grid, "ID", "CY"),
        factor_ops=sf.factor_ops,
    )
    print(
        f"\nat P=64: efficiency {res.efficiency:.2f}, "
        f"critical-path bound {cp.max_efficiency(64):.2f}, "
        f"idle fraction {res.idle_fraction:.2f}"
    )
    print("the gap between achieved and bound is scheduling + communication,")
    print("exactly the paper's post-remapping diagnosis (Sec. 5).")


if __name__ == "__main__":
    main()
