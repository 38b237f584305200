#!/usr/bin/env python
"""The high-level API: factor, solve, and plan parallel execution in a few
lines.

Run:  python examples/solver_api.py
"""

import numpy as np

import repro
from repro.solver import SparseCholesky


def main() -> None:
    # One object, three calls: symbolic analysis happens at construction,
    # ordering is picked automatically (mesh-like -> nested dissection).
    problem = repro.cube3d_matrix(10)
    chol = SparseCholesky(problem.A).factor()

    rng = np.random.default_rng(7)
    b = rng.standard_normal(problem.n)
    x = chol.solve(b)
    print(f"n={problem.n}, solve residual {np.max(np.abs(problem.A @ x - b)):.2e}")

    # Planning: how would this factorization run on a 64-node machine?
    print(f"\n{'mapping':>8s} {'Mflops':>8s} {'eff':>6s} {'bound':>6s} {'MB':>6s}")
    for name, plan in chol.compare_mappings(64).items():
        print(
            f"{name:>8s} {plan.mflops:8.1f} {plan.efficiency:6.2f} "
            f"{plan.balance_bound:6.2f} {plan.comm_megabytes:6.1f}"
        )


if __name__ == "__main__":
    main()
