"""Dependency plan for the distributed triangular solve.

The solve phase reuses the factor's block-column structure: forward
substitution sends each solved panel down its *column* (the subdiagonal
blocks consume it) and accumulates update fragments by *row*; backward
substitution mirrors it. :class:`SolvePlan` precomputes, once per
pattern, everything a worker needs to run both sweeps without touching
the symbolic layer again:

* per-panel diagonal block ids and widths;
* the column block list of each panel (ascending destination panel — the
  order ``tg.subdiag_blocks`` already stores);
* the row block list of each panel (ascending source panel — the
  canonical forward accumulation order);
* per-block destination row indices, local to the destination panel;
* forward/backward dependency counts.

Determinism contract: updates into a panel are applied in ascending
source order in both sweeps — the exact order the sequential reference
:func:`repro.numeric.solve.block_forward` / ``block_backward`` uses — so
a worker parks early arrivals and advances a next-index cursor instead
of applying them as they land.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.structure import BlockStructure
from repro.fanout.tasks import TaskGraph

__all__ = ["SolvePlan"]

#: Solve task kinds (worker-internal; they never appear in a TaskGraph).
FSOLVE, FUPD, BSOLVE, BUPD = 0, 1, 2, 3

SOLVE_KIND_NAMES = {FSOLVE: "FSOLVE", FUPD: "FUPD",
                    BSOLVE: "BSOLVE", BUPD: "BUPD"}


class SolvePlan:
    """Per-pattern dependency lists for forward/backward substitution."""

    def __init__(self, structure: BlockStructure, tg: TaskGraph):
        part = structure.partition
        ptr = np.asarray(part.panel_ptr, dtype=np.int64)
        npanels = tg.npanels
        self.npanels = npanels
        self.panel_ptr = ptr
        self.widths = np.asarray(part.widths, dtype=np.int64)

        #: Panel -> its diagonal block id.
        self.diag_block = tg.diag_block

        #: Panel K -> subdiagonal block ids of column K, ascending dest.
        self.col_blocks: list[np.ndarray] = []
        #: Block id -> destination rows local to the destination panel
        #: (``block_row_span(K, t) - panel_ptr[I]``).
        self.block_ridx: dict[int, np.ndarray] = {}
        row_lists: list[list[int]] = [[] for _ in range(npanels)]
        for k in range(npanels):
            sub = np.asarray(
                tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]],
                dtype=np.int64,
            )
            self.col_blocks.append(sub)
            for t in range(sub.shape[0]):
                b = int(sub[t])
                dest = int(tg.block_I[b])
                rows = structure.block_row_span(k, t)
                self.block_ridx[b] = (
                    np.asarray(rows, dtype=np.int64) - ptr[dest]
                )
                # Outer loop ascends k == block_J, so each row list is
                # built in ascending source-panel order — the canonical
                # forward accumulation order.
                row_lists[dest].append(b)

        #: Panel I -> block ids of row I, ascending source panel.
        self.row_blocks = [
            np.asarray(bs, dtype=np.int64) for bs in row_lists
        ]
        #: Forward updates each panel waits for (one per row block).
        self.fwd_count = np.array(
            [bs.shape[0] for bs in self.row_blocks], dtype=np.int64
        )
        #: Backward updates each panel waits for (one per column block).
        self.bwd_count = np.array(
            [bs.shape[0] for bs in self.col_blocks], dtype=np.int64
        )
