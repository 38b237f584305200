"""One rank's plan for the distributed triangular solve.

The unit of work is the panel, as in the sequential sweeps of
:mod:`repro.numeric.solve`: ``FSOLVE(K)`` / ``BSOLVE(K)`` run where the
diagonal block of panel K lives, and rank g runs ``FUPD(K, g)`` /
``BUPD(K, g)`` over the rows of column K it owns, stacked — one product
each. :class:`SolvePlan` compiles, once per (pattern, rank), everything
the rank needs to run both sweeps without touching the symbolic layer
again:

* per column the rank holds blocks of, its :class:`Share`: its rows of
  the stacked subdiagonal, their global rows, and per block its rows of
  the product and the rank that absorbs its forward update (one
  ``SOLVE_FUP`` frame per remote block, as the ledger counts them);
* per owned diagonal: the blocks of its row in ascending source panel
  (the forward order), the first block of each owner's backward share in
  ascending order (the backward order; one ``SOLVE_BUP`` per remote
  share), and where its solved ``X`` travels;
* per task, how many events it waits for.

Determinism contract: a panel absorbs its updates in that fixed order,
however they arrive, so the same grouping gives the same bits. Where one
rank owns every block of a column (every ``1 x P`` grid) the grouping is
the sequential sweeps' one product per panel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.blocks.structure import BlockStructure
from repro.fanout.tasks import TaskGraph

__all__ = ["SolvePlan", "Share"]

#: Solve task kinds (worker-internal; they never appear in a TaskGraph).
#: A solve task id is ``kind * npanels + K``.
FSOLVE, FUPD, BSOLVE, BUPD = 0, 1, 2, 3

SOLVE_KIND_NAMES = {FSOLVE: "FSOLVE", FUPD: "FUPD",
                    BSOLVE: "BSOLVE", BUPD: "BUPD"}


class Share(NamedTuple):
    """A rank's share of column K: ``sel`` picks its rows of the stacked
    subdiagonal (a slice when they are contiguous), ``rows`` are their
    global rows, and ``parts`` holds per owned block ``(block, lo, hi,
    dst)``: its rows of the product and the rank that absorbs its forward
    update. The first part's block names the backward share."""

    sel: slice | np.ndarray
    rows: np.ndarray
    parts: list[tuple[int, int, int, int]]


class SolvePlan:
    """Rank ``rank``'s solve tasks, their inputs and their consumers."""

    def __init__(self, structure: BlockStructure, tg: TaskGraph,
                 owners: np.ndarray, rank: int):
        ptr = np.asarray(structure.partition.panel_ptr)
        N = self.npanels = tg.npanels
        self.panel_cols = list(zip(ptr[:-1].tolist(), ptr[1:].tolist()))
        owners = np.asarray(owners)
        self.diag_owner = diag = owners[tg.diag_block].tolist()
        mine = [k for k in range(N) if diag[k] == rank]
        #: Column K -> this rank's :class:`Share` of it.
        self.shares: dict[int, Share] = {}
        #: Owned panel I -> ``(block, global rows)`` of row I, ascending K.
        self.fwd_order: dict[int, list] = {k: [] for k in mine}
        #: Owned panel K -> first block of each owner's share, ascending.
        self.bup_order: dict[int, list[int]] = {}
        x_dsts: list[set[int]] = [set() for _ in range(N)]
        #: Panel I -> the columns whose BUPD here reads ``X_I``.
        self.x_wake: list[list[int]] = [[] for _ in range(N)]
        #: Solve task id -> events it waits for before it is ready.
        self.wait = wait = [0] * (4 * N)
        for k in range(N):
            sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
            own = owners[sub]
            if diag[k] == rank:
                first = np.sort(np.unique(own, return_index=True)[1])
                self.bup_order[k] = sub[first].tolist()
                wait[BSOLVE * N + k] = 1 + first.shape[0]  # FSOLVE, shares
            splits = structure.row_splits[k].tolist()
            below = structure.rows_below[k]
            held, parts = [], []
            for t, (b, i, g) in enumerate(zip(
                sub.tolist(), tg.block_I[sub].tolist(), own.tolist()
            )):
                lo, hi = splits[t], splits[t + 1]
                if diag[i] == rank:
                    self.fwd_order[i].append((b, below[lo:hi]))
                    x_dsts[i].add(g)
                if g == rank:
                    at = parts[-1][2] if parts else 0
                    parts.append((b, at, at + hi - lo, diag[i]))
                    held.append(t)
                    self.x_wake[i].append(k)
            if not held:
                continue
            if held[-1] - held[0] + 1 == len(held):
                sel = slice(splits[held[0]], splits[held[-1] + 1])
            else:
                sel = np.concatenate(
                    [np.arange(splits[t], splits[t + 1]) for t in held]
                )
            self.shares[k] = Share(sel, below[sel], parts)
            wait[FUPD * N + k] = 1  # Y_K
            wait[BUPD * N + k] = len(held)  # X_I of each held block
        for i, order in self.fwd_order.items():
            wait[FSOLVE * N + i] = len(order)
        #: Panel I -> the remote ranks its solved ``X_I`` travels to (its
        #: ``Y_I`` travels where ``L_II`` does).
        self.x_dsts = [sorted(d - {rank}) for d in x_dsts]
        #: Solve tasks this rank runs: FSOLVE + BSOLVE per owned diagonal,
        #: FUPD + BUPD per share.
        self.ntasks = 2 * (len(mine) + len(self.shares))
        #: Ready at the start: FSOLVE of owned panels no update reaches.
        self.seeds = [
            FSOLVE * N + i for i, order in self.fwd_order.items()
            if not order
        ]
