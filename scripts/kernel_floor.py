#!/usr/bin/env python3
"""What one task of each kind costs: ``scripts/kernel_floor.py <workload>``.

Runs one warm ``BlockCholesky.factor()`` and one block solve (``nrhs`` right-
hand sides) of a benchmark workload with a clock around every dispatched
operation — the panel factor PFAC that runs a column's BFAC and BDIVs, and
the panel update PMOD that runs the BMODs from one source panel into one
destination panel — and, inside it, around the dense kernels it calls, and
prints per kind the count, the total and the time per operation; a PMOD
splits into its dgemm and the rest (slicing, the index of the scatter, the
scatter). The clocks are put on from here (the
methods of ``BlockCholesky`` and the kernel names its module and
``numeric.solve`` look up), so nothing in ``src/`` knows about them. A
row's time includes the clock of the row nested in it; the last line says
what one clock costs.

The benchmark's ``seq_factor_s`` is not that warm pass: it times the first
``factor()`` of a fresh ``SparseCholesky``, which also compiles the
structure's ``NumericPlan``, builds the scatter of ``A`` into the packed
store (``scatter_map``) and scans the store for NaN/Inf
(``check_finite``). A second table clocks those steps (the plan compile
with its ``_compile_bmod``) and the factor loop over as many fresh
instances (each on the next matrix of the stream, its analysis outside the
clocks) and prints the fastest instance: its top-level rows and what they
leave unclocked add up to its first ``factor()``. Below them, the first
read of ``.L``, which ``factor()`` no longer pays: ``to_csc`` and, inside
it, the CSC pattern of ``L`` (``csc_pattern``).

The per-operation column is the fixed cost §3.2 of the paper charges a block
operation (its ``1000`` in ``flops + 1000 * ops``), measured here: what is
left of a task when its flops are negligible, and the floor a coarser op pays
once: a PFAC once per panel instead of once per BFAC and BDIV, a PMOD once
per (K, J) pair instead of once per BMOD.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import (  # noqa: E402
    BLOCK_SIZE,
    DEV_SEED,
    NRHS,
    WORKLOADS,
    ValueStream,
)
from repro.blocks import plan  # noqa: E402
from repro.numeric import blockfact, solve  # noqa: E402
from repro.solver import SparseCholesky  # noqa: E402

FACTOR_KERNELS = {
    "bfac_kernel": "BFAC kernel",
    "bdiv_kernel": "BDIV kernel",
    "bmod_kernel_into": "PMOD dgemm",
    "bmod_kernel": "PMOD dgemm",
}
FACTOR_OPS = {"pfac": "PFAC", "pmod": "PMOD"}
SOLVE_KERNELS = {
    "fsolve_kernel": "FSOLVE",
    "fupd_kernel": "FUPD",
    "bsolve_kernel": "BSOLVE",
    "bupd_kernel": "BUPD",
}
#: The steps of a fresh instance's first factor: (owner, name, row).
COLD_STEPS = (
    (plan.NumericPlan, "__init__", "NumericPlan compile"),
    (plan.NumericPlan, "_compile_bmod", "_compile_bmod"),
    (plan.NumericPlan, "scatter_map", "scatter_map"),
    (blockfact.BlockCholesky, "factor", "factor loop"),
    (blockfact.BlockCholesky, "check_finite", "check_finite"),
    (blockfact.BlockCholesky, "to_csc", "to_csc"),
    (plan.NumericPlan, "csc_pattern", "csc_pattern"),
)

#: What the clocked steps leave of a cold factor: the store's bincount
#: fill and slab views (``BlockCholesky.__init__`` / ``_adopt``) and the
#: façade around them.
REST = "rest (unclocked)"


class Clocks:
    """``{row: [count, seconds]}`` of one pass, filled by the wrappers."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, row, dt):
        got = self.rows.setdefault(row, [0, 0.0])
        got[0] += 1
        got[1] += dt

    def task(self, row, fn):
        now = time.perf_counter

        def timed(*args):
            t0 = now()
            out = fn(*args)
            self.add(row, now() - t0)
            return out

        return timed


def one_pass(chol, B):
    """Clock one ``factor()`` + one solve; the patches are undone after."""
    clocks = Clocks()
    cls = blockfact.BlockCholesky
    saved = [(blockfact, n, getattr(blockfact, n)) for n in FACTOR_KERNELS]
    saved += [(solve, n, getattr(solve, n)) for n in SOLVE_KERNELS]
    saved += [(cls, n, getattr(cls, n)) for n in FACTOR_OPS]
    try:
        for owner, table in ((blockfact, FACTOR_KERNELS),
                             (solve, SOLVE_KERNELS), (cls, FACTOR_OPS)):
            for name, row in table.items():
                setattr(owner, name, clocks.task(row, getattr(owner, name)))
        t0 = time.perf_counter()
        chol.factor()
        t1 = time.perf_counter()
        chol.solve(B)
        t2 = time.perf_counter()
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    clocks.add("factor() under the clocks", t1 - t0)
    clocks.add("solve() under the clocks", t2 - t1)
    return clocks.rows


def cold_pass(stream):
    """Clock the first ``factor()`` of a fresh instance, step by step,
    then its first read of ``.L``."""
    chol = SparseCholesky(stream.next_matrix(), block_size=BLOCK_SIZE)
    clocks = Clocks()
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in COLD_STEPS]
    try:
        for owner, name, row in COLD_STEPS:
            setattr(owner, name, clocks.task(row, getattr(owner, name)))
        t0 = time.perf_counter()
        chol.factor()
        t1 = time.perf_counter()
        # The read's clocks apart: to_csc's own check_finite is not the
        # factor's.
        factored, clocks.rows = clocks.rows, {}
        chol.L
        t2 = time.perf_counter()
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    read, clocks.rows = clocks.rows, factored
    clocks.rows.update((row, read[row]) for row in ("to_csc", "csc_pattern"))
    clocks.add("first factor(), cold", t1 - t0)
    clocks.add("first read of .L", t2 - t1)
    top = ("NumericPlan compile", "scatter_map", "factor loop", "check_finite")
    clocks.add(REST, t1 - t0 - sum(clocks.rows[row][1] for row in top))
    return clocks.rows


def clock_cost() -> float:
    clocks = Clocks()
    timed = clocks.task("x", lambda: None)
    reps = 20000
    t0 = time.perf_counter()
    for _ in range(reps):
        timed()
    return (time.perf_counter() - t0) / reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--passes", type=int, default=7,
                    help="clocked passes; each row reports its fastest")
    args = ap.parse_args(argv)

    stream = ValueStream(WORKLOADS[args.workload].pattern(), DEV_SEED)
    chol = SparseCholesky(stream.next_matrix(), block_size=BLOCK_SIZE)
    B = stream.B
    chol.factor().solve(B)  # compile the plan, warm the caches
    plain_f, plain_s = [], []
    for _ in range(args.passes):
        t0 = time.perf_counter()
        chol.factor()
        t1 = time.perf_counter()
        chol.solve(B)
        plain_f.append(t1 - t0)
        plain_s.append(time.perf_counter() - t1)
    best: dict = {}
    for _ in range(args.passes):
        for row, (count, secs) in one_pass(chol, B).items():
            if row not in best or secs < best[row][1]:
                best[row] = (count, secs)

    print(f"{args.workload}: n = {B.shape[0]}, nrhs = {NRHS}, "
          f"block_size = {BLOCK_SIZE}, fastest of {args.passes} passes")
    print(f"{'task kind':<28}{'count':>8}{'total ms':>11}{'us / op':>10}")

    def line(row, indent=""):
        if row in best:
            count, secs = best[row]
            print(f"{indent + row:<28}{count:>8}{secs * 1e3:>11.2f}"
                  f"{secs / count * 1e6:>10.2f}")

    line("PFAC")
    line("BFAC kernel", "  ")
    line("BDIV kernel", "  ")
    line("PMOD")
    line("PMOD dgemm", "  ")
    if "PMOD" in best:
        count, secs = best["PMOD"]
        rest = secs - best["PMOD dgemm"][1]
        print(f"{'  PMOD rest (scatter)':<28}{count:>8}"
              f"{rest * 1e3:>11.2f}{rest / count * 1e6:>10.2f}")
    for row in SOLVE_KERNELS.values():
        line(row)
    print()
    line("factor() under the clocks")
    line("solve() under the clocks")
    print(f"{'factor() without':<28}{1:>8}{min(plain_f) * 1e3:>11.2f}")
    print(f"{'solve() without':<28}{1:>8}{min(plain_s) * 1e3:>11.2f}")

    # The cold rows are those of the fastest instance, so they add up.
    best = min((cold_pass(stream) for _ in range(args.passes)),
               key=lambda rows: rows["first factor(), cold"][1])
    print()
    print(f"cold: fastest of {args.passes} fresh instances")
    line("first factor(), cold")
    line("NumericPlan compile", "  ")
    line("_compile_bmod", "    ")
    line("scatter_map", "  ")
    line("factor loop", "  ")
    line("check_finite", "  ")
    line(REST, "  ")
    line("first read of .L")
    line("to_csc", "  ")
    line("csc_pattern", "    ")
    print(f"one clock: {clock_cost() * 1e6:.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
