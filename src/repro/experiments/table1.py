"""Tables 1 and 6: benchmark matrix statistics (equations, nnz(L), ops to
factor) of the ten benchmark matrices and of the four larger ones.

Ours are computed on the reproduction's (possibly rescaled, possibly
synthetic) instances; the paper's published values are shown alongside.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.matrices.registry import problem_names

HEADERS = (
    "Name",
    "Equations",
    "NZ in L",
    "Ops (M)",
    "Paper eqs",
    "Paper NZ",
    "Paper ops (M)",
)


def run(scale: str = "medium", suite: str = "table1") -> ExperimentResult:
    rows = []
    for name in problem_names(suite):
        prep = prepare_problem(name, scale)
        stats = prep.problem.meta["paper_stats"]
        rows.append(
            (
                name,
                prep.problem.n,
                prep.symbolic.factor_nnz,
                prep.factor_ops / 1e6,
                stats.equations,
                stats.nnz_factor,
                stats.factor_ops_millions,
            )
        )
    return ExperimentResult(
        experiment=f"Table 1: benchmark matrices (scale={scale})",
        headers=HEADERS,
        rows=rows,
        notes="Paper columns are the published full-size statistics.",
    )


def run_table6(scale: str = "medium") -> ExperimentResult:
    res = run(scale=scale, suite="table6")
    res.experiment = f"Table 6: large benchmark matrices (scale={scale})"
    return res
