"""Table 2: row/column/diagonal/overall balance of the 2-D cyclic mapping.

The paper's finding: diagonal imbalance is the most severe, then row
imbalance, then column imbalance; all three depress the overall bound.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.mapping import balance_metrics, cyclic_map, square_grid
from repro.matrices.registry import problem_names

#: Published Table 2 (P = 64, B = 48): row, col, diag, overall balance.
PAPER_TABLE2 = {
    "DENSE1024": (0.65, 0.95, 0.69, 0.46),
    "DENSE2048": (0.80, 0.99, 0.82, 0.67),
    "GRID150": (0.78, 0.86, 0.62, 0.48),
    "GRID300": (0.85, 0.89, 0.71, 0.54),
    "CUBE30": (0.87, 0.94, 0.77, 0.68),
    "CUBE35": (0.86, 0.94, 0.80, 0.66),
    "BCSSTK15": (0.70, 0.69, 0.58, 0.38),
    "BCSSTK29": (0.68, 0.75, 0.63, 0.39),
    "BCSSTK31": (0.75, 0.95, 0.73, 0.54),
    "BCSSTK33": (0.76, 0.89, 0.71, 0.53),
}

HEADERS = ("Matrix", "Row", "Col", "Diag", "Overall",
           "Paper row", "Paper col", "Paper diag", "Paper overall")


def run(scale: str = "medium", P: int = 64) -> ExperimentResult:
    grid = square_grid(P)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        cmap = cyclic_map(prep.partition.npanels, grid)
        bal = balance_metrics(prep.workmodel, cmap)
        data[name] = bal
        paper = PAPER_TABLE2.get(name, (float("nan"),) * 4)
        rows.append((name, *bal.as_row(), *paper))
    return ExperimentResult(
        experiment=f"Table 2: cyclic-mapping balance (P={P}, B=48, scale={scale})",
        headers=HEADERS,
        rows=rows,
        data=data,
        paper_reference=PAPER_TABLE2,
        notes=(
            "Balance order expected: diagonal worst, then row, then column; "
            "overall below all three."
        ),
    )
