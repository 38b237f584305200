"""Experiment result container and rendering helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.util.formatting import format_table


@dataclass
class ExperimentResult:
    """A reproduced table/figure: headers + rows + free-form data.

    ``paper_reference`` optionally carries the numbers published in the
    paper for side-by-side comparison in rendered output and EXPERIMENTS.md.
    """

    experiment: str
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    data: dict = field(default_factory=dict)
    paper_reference: dict = field(default_factory=dict)
    notes: str = ""

    def render(self, floatfmt: str = "{:.2f}") -> str:
        out = format_table(self.headers, self.rows, title=self.experiment,
                           floatfmt=floatfmt)
        if self.notes:
            out += "\n" + self.notes
        return out

    def to_json(self) -> str:
        """Machine-readable form: the table, the paper reference and the
        notes (``data`` is left out)."""

        def default(obj):
            if isinstance(obj, np.integer):
                return int(obj)
            if isinstance(obj, np.floating):
                return float(obj)
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            return str(obj)

        payload = {
            "experiment": self.experiment,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "paper_reference": self.paper_reference,
            "notes": self.notes,
        }
        return json.dumps(payload, default=default, indent=2)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def pct(new: float, base: float) -> float:
    """Percent improvement of ``new`` over ``base``."""
    if base == 0:
        return 0.0
    return 100.0 * (new - base) / base
