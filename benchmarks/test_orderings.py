"""Ordering-quality benchmark: fill and operation counts of every ordering
this repository implements, on one irregular and one grid problem.

Not a paper table — a substrate-quality check: MMD should dominate on the
irregular matrix, ND on the grid (the paper's per-family choices). ``nd``
cuts coordinate planes when the problem has coordinates; ``nd-levels`` is
the coordinate-free level-set ND that ``"auto"`` runs, so the grid's two
rows show what the missing coordinates cost."""

import time

import pytest

from repro.graph import AdjacencyGraph
from repro.matrices import get_problem
from repro.ordering import minimum_degree, nested_dissection
from repro.symbolic import symbolic_factor
from repro.util.formatting import format_table


def _survey(problem):
    g = AdjacencyGraph.from_sparse(problem.A)
    orderings = {
        "natural": None,
        "nd": nested_dissection(g, coords=problem.coords),
        "nd-levels": nested_dissection(g),
        "mmd": minimum_degree(g),
    }
    rows = []
    for name, perm in orderings.items():
        t0 = time.perf_counter()
        sf = symbolic_factor(problem.A, perm)
        rows.append(
            (name, sf.factor_nnz, sf.factor_ops / 1e6,
             time.perf_counter() - t0)
        )
    return rows


def test_ordering_quality_irregular(benchmark, scale):
    problem = get_problem("BCSSTK15", scale if scale != "paper" else "medium")
    rows = benchmark.pedantic(lambda: _survey(problem), rounds=1, iterations=1)
    print()
    print(format_table(("ordering", "nnz(L)", "ops (M)", "sym s"), rows,
                       title=f"ordering quality, {problem.name}"))
    stats = {r[0]: r[1] for r in rows}
    assert stats["mmd"] < stats["natural"]


def test_ordering_quality_grid(benchmark, scale):
    problem = get_problem("GRID150", scale if scale != "paper" else "medium")
    rows = benchmark.pedantic(lambda: _survey(problem), rounds=1, iterations=1)
    print()
    print(format_table(("ordering", "nnz(L)", "ops (M)", "sym s"), rows,
                       title=f"ordering quality, {problem.name}"))
    stats = {r[0]: r[2] for r in rows}
    assert stats["nd"] < stats["natural"]
