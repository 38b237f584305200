"""Table 3: balance per remapping heuristic on BCSSTK31 (P = 64, B = 48).

Each heuristic is applied to both the row and the column mapping. The
paper's findings: every heuristic removes the diagonal imbalance; DW and ID
give the best row/column balances; IN is the weakest but still far better
than cyclic.
"""

from __future__ import annotations

from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.mapping import balance_metrics, cyclic_map, heuristic_map, square_grid

#: Published Table 3: row, col, diag, overall balance.
PAPER_TABLE3 = {
    "CY": (0.75, 0.95, 0.73, 0.54),
    "DW": (0.99, 0.99, 0.92, 0.76),
    "IN": (0.83, 0.96, 0.90, 0.72),
    "DN": (0.99, 0.98, 0.93, 0.81),
    "ID": (0.99, 0.99, 0.96, 0.81),
}

HEADERS = ("Heuristic", "Row", "Col", "Diag", "Overall",
           "Paper row", "Paper col", "Paper diag", "Paper overall")


def run(
    scale: str = "medium", P: int = 64, matrix: str = "BCSSTK31"
) -> ExperimentResult:
    grid = square_grid(P)
    prep = prepare_problem(matrix, scale)
    rows = []
    data = {}
    for h in ("CY", "DW", "IN", "DN", "ID"):
        if h == "CY":
            cmap = cyclic_map(prep.partition.npanels, grid)
        else:
            cmap = heuristic_map(prep.workmodel, grid, h, h)
        bal = balance_metrics(prep.workmodel, cmap)
        data[h] = bal
        rows.append((h, *bal.as_row(), *PAPER_TABLE3[h]))
    return ExperimentResult(
        experiment=(
            f"Table 3: balance by heuristic, {matrix} (P={P}, B=48, scale={scale})"
        ),
        headers=HEADERS,
        rows=rows,
        data=data,
        paper_reference=PAPER_TABLE3,
    )
