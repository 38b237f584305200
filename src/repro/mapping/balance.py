"""Load-balance metrics (§3.2): overall, row, column, diagonal balance.

Each metric is an upper bound on achievable parallel efficiency; ``overall``
is the tightest (``efficiency <= overall <= row, column, diagonal``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocks.workmodel import WorkModel
from repro.mapping.base import CartesianMap
from repro.mapping.grid import ProcessorGrid


@dataclass(frozen=True)
class BalanceReport:
    """The four balance statistics of §3.2. ``diagonal`` is None on
    non-square grids (generalized diagonals are defined for ``Pr == Pc``)."""

    overall: float
    row: float
    column: float
    diagonal: float | None

    def as_row(self) -> tuple:
        d = self.diagonal if self.diagonal is not None else float("nan")
        return (self.row, self.column, d, self.overall)


def overall_balance(proc_work) -> float:
    """``total / (P * max)`` over per-rank values — 1.0 is perfect."""
    w = np.asarray(proc_work, dtype=float)
    m = float(w.max(initial=0.0))
    if m <= 0:
        return 1.0
    return float(w.sum() / (w.shape[0] * m))


def grid_balance(proc_work, grid: ProcessorGrid) -> BalanceReport:
    """The four statistics of per-rank work on ``grid``, where rank
    ``r * Pc + c`` is processor (r, c): the work summed per grid row,
    column and diagonal ``(r - c) mod Pr``. Exact for integer work units,
    so a run's realized work and a model's share agree bit for bit.

    overall  = work_total / (P * max_p work_p)
    row      = work_total / (P * max_r (sum_c work_(r,c)) / Pc)
    column   = work_total / (P * max_c (sum_r work_(r,c)) / Pr)
    diagonal = work_total / (P * max_d (sum_{(r-c) mod Pr = d} work) / Pr)
    """
    w = np.asarray(proc_work, dtype=float)
    Pr, Pc, P = grid.Pr, grid.Pc, grid.P
    if w.shape != (P,):
        raise ValueError(f"grid {Pr}x{Pc} does not cover {w.shape[0]} ranks")
    total = float(w.sum())
    if total <= 0:
        return BalanceReport(1.0, 1.0, 1.0, 1.0 if grid.is_square else None)
    r, c = np.divmod(np.arange(P), Pc)
    row = np.bincount(r, weights=w, minlength=Pr)
    col = np.bincount(c, weights=w, minlength=Pc)
    diag = None
    if grid.is_square:
        d = np.bincount((r - c) % Pr, weights=w, minlength=Pr)
        diag = float(total / (P * d.max() / Pr))
    return BalanceReport(
        overall=overall_balance(w),
        row=float(total / (P * row.max() / Pc)),
        column=float(total / (P * col.max() / Pr)),
        diagonal=diag,
    )


def overall_balance_from_owners(wm: WorkModel, owners, P: int) -> float:
    """Overall balance for an arbitrary block ownership (e.g. with domains).

    This is the exact upper bound on the simulator's efficiency, since the
    simulator charges each processor ``work_p / flop_rate`` of compute time.
    """
    return overall_balance(
        np.bincount(np.asarray(owners), weights=wm.work, minlength=P)
    )


def balance_metrics(wm: WorkModel, cmap: CartesianMap) -> BalanceReport:
    """The balance report of work model ``wm`` under mapping ``cmap``:
    :func:`grid_balance` of the per-processor work, so the row, column
    and diagonal sums run over ``mapI[I]``, ``mapJ[J]`` and
    ``(mapI[I] - mapJ[J]) mod Pr`` of each block (I, J)."""
    ranks = cmap.owner_array(wm.dest_I, wm.dest_J)
    grid = cmap.grid
    return grid_balance(
        np.bincount(ranks, weights=wm.work, minlength=grid.P), grid
    )
