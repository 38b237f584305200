#!/usr/bin/env python
"""Quickstart: factor a sparse SPD matrix and see the paper's effect.

This walks the full pipeline on one problem:

1. generate a 2-D grid problem and order it with nested dissection;
2. symbolic factorization (elimination tree, supernodes, amalgamation);
3. partition into B-column blocks and compute the paper's work model;
4. numerically factor (sequential block fan-out) and solve ``A x = b``;
5. simulate the parallel block fan-out on a 64-node Paragon with the
   traditional 2-D cyclic mapping and with the paper's heuristic remapping,
   and compare.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    # ---- 1. problem + ordering ------------------------------------------
    problem = repro.grid2d_matrix(64)  # 4096 equations, 9-point stencil
    ordering = repro.order_problem(problem, "nd")
    print(f"problem: {problem.name}, n={problem.n}, nnz(A)={problem.nnz}")

    # ---- 2. symbolic factorization --------------------------------------
    sf = repro.symbolic_factor(problem.A, ordering)
    print(
        f"factor: nnz(L)={sf.factor_nnz:,}, ops={sf.factor_ops / 1e6:.1f}M, "
        f"supernodes={sf.nsupernodes}"
    )

    # ---- 3. blocks + work model (B = 48, as in the paper) ---------------
    partition = repro.BlockPartition(sf, block_size=48)
    structure = repro.BlockStructure(partition)
    wm = repro.WorkModel(structure)
    print(f"blocks: N={partition.npanels} panels, {structure.num_blocks} blocks")

    # ---- 4. numeric factorization + solve -------------------------------
    chol = repro.BlockCholesky(structure, sf.A).factor()
    L = chol.to_csc()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(problem.n)
    x = repro.solve_with_factor(L, b, sf.ordering)
    print(f"solve: residual |Ax-b| = {np.max(np.abs(problem.A @ x - b)):.2e}")

    # ---- 5. parallel simulation: cyclic vs heuristic mapping ------------
    grid = repro.square_grid(64)
    tg = repro.TaskGraph(wm)
    cyclic = repro.run_fanout(
        tg,
        repro.cyclic_map(partition.npanels, grid),
        factor_ops=sf.factor_ops,
    )
    heuristic = repro.run_fanout(
        tg,
        repro.heuristic_map(wm, grid, "ID", "CY"),
        factor_ops=sf.factor_ops,
    )
    print(f"\nsimulated Intel Paragon, P={grid.P}:")
    print(
        f"  2-D cyclic mapping : {cyclic.mflops:7.1f} Mflops "
        f"(efficiency {cyclic.efficiency:.2f})"
    )
    print(
        f"  ID/CY heuristic    : {heuristic.mflops:7.1f} Mflops "
        f"(efficiency {heuristic.efficiency:.2f})"
    )
    gain = 100 * (heuristic.mflops / cyclic.mflops - 1)
    print(f"  improvement        : {gain:+.0f}%  (paper: ~20%)")


if __name__ == "__main__":
    main()
