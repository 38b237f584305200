"""Every experiment, in suite order: the only way one runs.

``python -m repro experiment <name> --scale S`` runs one entry of
:data:`EXPERIMENTS` and prints its table; ``python -m repro suite --scale
S`` runs them all through :func:`run_suite`.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path
from typing import Callable

from repro.experiments.runner import ExperimentResult


def _runner(module: str, fn: str = "run",
            scaled: bool = True) -> Callable[[str], ExperimentResult]:
    """``scale -> result`` for ``repro.experiments.<module>.<fn>``,
    imported on first call. An unscaled runner ignores the scale."""

    def run(scale: str) -> ExperimentResult:
        f = getattr(importlib.import_module(f"repro.experiments.{module}"),
                    fn)
        return f(scale) if scaled else f()

    return run


#: name -> (runner taking the scale, float format of its rendered table).
EXPERIMENTS: dict[str, tuple[Callable[[str], ExperimentResult], str]] = {
    "table1": (_runner("table1"), "{:.1f}"),
    "table6": (_runner("table1", "run_table6"), "{:.1f}"),
    "table2": (_runner("table2"), "{:.2f}"),
    "table3": (_runner("table3"), "{:.2f}"),
    "figure1": (_runner("figure1"), "{:.3f}"),
    "table4": (_runner("table4"), "{:.0f}"),
    "table7": (_runner("table7"), "{:.0f}"),
    "table5": (_runner("table4", "run_table5"), "{:.0f}"),
    "prime_grids": (_runner("prime_grids"), "{:.0f}"),
    "alt_heuristic": (_runner("alt_heuristic"), "{:.2f}"),
    "critical_path": (_runner("discussion", "run_critical_path"), "{:.3f}"),
    "subcube": (_runner("discussion", "run_subcube"), "{:.2f}"),
    "priority": (_runner("discussion", "run_priority_scheduling"), "{:.1f}"),
    "ablation_blocksize": (_runner("ablations", "run_block_size"), "{:.2f}"),
    "ablation_domains": (
        _runner("ablations", "run_domains_ablation"), "{:.2f}"),
    "ablation_zerocomm": (_runner("ablations", "run_zero_comm"), "{:.3f}"),
    "ablation_contention": (_runner("ablations", "run_contention"), "{:.2f}"),
    "variable_block": (_runner("variable_block"), "{:.2f}"),
    "dense_study": (_runner("dense_study"), "{:.0f}"),
    "oned_volume": (
        _runner("oned_comparison", "run_volume_scaling"), "{:.2f}"),
    "oned_critical_path": (
        _runner("oned_comparison", "run_critical_path_scaling", scaled=False),
        "{:.2f}"),
    "oned_performance": (
        _runner("oned_comparison", "run_performance"), "{:.1f}"),
}


def run_suite(scale: str) -> Path:
    """Run every experiment, printing each table and writing
    ``<name>.txt`` / ``<name>.json`` plus ``ALL.txt`` (the ``.txt``
    tables joined by blank lines) under ``results/<scale>/`` of the
    working directory. Wall times go to stdout only, so two runs of
    one tree write the same bytes."""
    outdir = Path("results") / scale
    outdir.mkdir(parents=True, exist_ok=True)
    combined = []
    for name, (run, fmt) in EXPERIMENTS.items():
        t0 = time.time()
        res = run(scale)
        table = res.render(fmt) + "\n"
        wall = time.time() - t0
        (outdir / f"{name}.txt").write_text(table)
        (outdir / f"{name}.json").write_text(res.to_json() + "\n")
        combined.append(table)
        print(f"== {name} ({wall:.1f}s)")
        print(table)
    (outdir / "ALL.txt").write_text("\n".join(combined))
    print(f"written to {outdir}/")
    return outdir
