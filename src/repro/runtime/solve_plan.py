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

The rank's *local* columns (``DispatchPlan.local_cols``) are in no task
table: one forward pass over them (solve id ``SWEEP * npanels``), which
waits for nothing, and one backward pass (``+ 1``) stand for their tasks.

Determinism contract: a panel absorbs its updates in that fixed order,
however they arrive, so the same grouping gives the same bits. Where one
rank owns every block of a column (every ``1 x P`` grid) the grouping is
the sequential sweeps' one product per panel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.blocks.structure import BlockStructure
from repro.fanout.dispatch import stacked_rows
from repro.fanout.tasks import TaskGraph

__all__ = ["SolvePlan", "Share"]

#: Solve task kinds (worker-internal; they never appear in a TaskGraph).
#: A solve task id is ``kind * npanels + K``; ``SWEEP`` the local passes.
FSOLVE, FUPD, BSOLVE, BUPD, SWEEP = 0, 1, 2, 3, 4
SOLVE_KIND_NAMES = ("FSOLVE", "FUPD", "BSOLVE", "BUPD")


class Share(NamedTuple):
    """A rank's share of column K: ``sel`` picks its rows of the stacked
    subdiagonal (a slice when they are contiguous), ``rows`` are their
    global rows, and ``parts`` holds per owned block ``(block, lo, hi,
    dst)``: its rows of the product and the rank that absorbs its forward
    update. The first part's block names the backward share. A local
    column's first ``m`` rows are local rows, which have no part."""

    sel: slice | np.ndarray
    rows: np.ndarray
    parts: list[tuple[int, int, int, int]]
    m: int


class SolvePlan:
    """Rank ``rank``'s solve tasks, their inputs and their consumers."""

    def __init__(self, structure: BlockStructure, tg: TaskGraph,
                 owners: np.ndarray, rank: int, local_cols: list[int]):
        ptr = np.asarray(structure.partition.panel_ptr)
        N = self.npanels = tg.npanels
        self.panel_cols = list(zip(ptr[:-1].tolist(), ptr[1:].tolist()))
        owners = np.asarray(owners)
        self.diag_owner = diag = owners[tg.diag_block].tolist()
        #: The rows this rank solves: of the panels whose diagonal it owns.
        self.rows = np.flatnonzero(np.repeat(
            owners[tg.diag_block] == rank, np.diff(ptr)))
        self.local_cols, local = local_cols, set(local_cols)
        mine = [k for k in range(N) if diag[k] == rank and k not in local]
        #: Column K -> this rank's :class:`Share` of it.
        self.shares: dict[int, Share] = {}
        #: Owned panel I -> ``(block, global rows)`` of row I, ascending K.
        self.fwd_order: dict[int, list] = {k: [] for k in mine}
        #: Owned panel K -> first block of each owner's share, ascending.
        self.bup_order: dict[int, list[int]] = {}
        x_dsts: list[set[int]] = [set() for _ in range(N)]
        #: Panel I -> ``(kind, K)`` of the BUPDs (and the backward pass,
        #: ``(SWEEP, 1)``) that read ``X_I`` here.
        self.x_wake: list[list[tuple]] = [[] for _ in range(N)]
        #: Solve id -> events it waits for before it is ready.
        self.wait = wait = [0] * (SWEEP * N + 2)
        reads: set[int] = set()  # non-local rows the local columns read
        #: A local pass's work at one right-hand side.
        self.sweep_work = 0
        for k in range(N):
            sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
            own = owners[sub]
            below = structure.rows_below[k]
            if k in local:
                w = int(ptr[k + 1] - ptr[k])
                self.sweep_work += w * (w + 2 * below.shape[0])
            elif diag[k] == rank:
                first = np.sort(np.unique(own, return_index=True)[1])
                self.bup_order[k] = sub[first].tolist()
                wait[BSOLVE * N + k] = 1 + first.shape[0]  # FSOLVE, shares
            splits = structure.row_splits[k].tolist()
            held, parts, at, m = [], [], 0, 0
            for t, (b, i, g) in enumerate(zip(
                sub.tolist(), tg.block_I[sub].tolist(), own.tolist()
            )):
                lo, hi = splits[t], splits[t + 1]
                if i in local:  # so is k: the forward pass applies its rows
                    m = at + hi - lo
                elif diag[i] == rank:
                    self.fwd_order[i].append((b, below[lo:hi]))
                    x_dsts[i].add(g)
                if g == rank:
                    if i not in local:
                        parts.append((b, at, at + hi - lo, diag[i]))
                        if k in local:
                            reads.add(i)
                        else:
                            self.x_wake[i].append((BUPD, k))
                            wait[BUPD * N + k] += 1
                    at += hi - lo
                    held.append(t)
            if not held:
                continue
            sel = stacked_rows([(splits[t], splits[t + 1]) for t in held])
            self.shares[k] = Share(sel, below[sel], parts, m)
            if k not in local:
                wait[FUPD * N + k] = 1  # Y_K
        for i, order in self.fwd_order.items():
            wait[FSOLVE * N + i] = len(order)
        #: Panel I -> the remote ranks its solved ``X_I`` travels to (its
        #: ``Y_I`` travels where ``L_II`` does).
        self.x_dsts = [sorted(d - {rank}) for d in x_dsts]
        #: A local pass's tasks per kind: one per column, one per share.
        self.sweep_counts = (len(local), len(local.intersection(self.shares)))
        #: Solve tasks this rank runs: FSOLVE + BSOLVE per owned diagonal,
        #: FUPD + BUPD per share (the local passes' included).
        self.ntasks = 2 * (len(mine) + len(local_cols) + len(self.shares))
        for i in reads:
            self.x_wake[i].append((SWEEP, 1))
        wait[SWEEP * N + 1] = 1 + len(reads)  # the forward pass, X_I
        #: Ready at the start: the forward pass (it waits for nothing), and
        #: FSOLVE of owned panels no update reaches.
        self.seeds = [SWEEP * N] * bool(local_cols) + [
            FSOLVE * N + i for i, order in self.fwd_order.items()
            if not order
        ]
