"""Static communication-volume accounting for a block mapping.

Counts, without running the simulator, every message the fan-out method
sends under a given ownership: diagonal blocks go to the owners of their
panel's subdiagonal blocks; each subdiagonal block goes to the owners of the
BMOD destinations it feeds. Used for the §5 subtree-to-subcube study, where
the paper observed up to 30% lower volume at the price of worse balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fanout.tasks import TaskGraph
from repro.machine.params import PARAGON, MachineParams


@dataclass(frozen=True)
class CommReport:
    messages: int
    bytes: int
    max_fanout: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.messages} messages, {self.bytes / 1e6:.2f} MB, "
            f"max fan-out {self.max_fanout}"
        )


def block_destinations(tg: TaskGraph, owners: np.ndarray):
    """Yield ``(b, dests)`` for every block that is sent at all: ``dests``
    are the distinct ranks other than ``owners[b]`` that need ``b`` — the
    owners of panel K's subdiagonal blocks for ``L_KK`` (BFAC -> BDIV), the
    owners of the BMOD destinations it feeds for ``L_IK`` (BDIV -> BMOD).

    The predictors' own statement of §2.3's recipient rule, deliberately
    independent of :mod:`repro.fanout.protocol`, which the executors drive
    and these counts check.
    """
    task_owner = owners[tg.task_block]
    for b in range(tg.nblocks):
        if tg.block_I[b] == tg.block_J[b]:
            k = tg.block_J[b]
            sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
            dests = np.unique(owners[sub])
        else:
            deps = tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]
            dests = np.unique(task_owner[deps])
        dests = dests[dests != owners[b]]
        if dests.size:
            yield b, dests


def communication_volume(
    tg: TaskGraph,
    owners: np.ndarray,
    machine: MachineParams = PARAGON,
) -> CommReport:
    """Total messages/bytes the fan-out method sends under ``owners``."""
    total_msgs = 0
    total_bytes = 0
    max_fanout = 0
    for b, dests in block_destinations(tg, np.asarray(owners)):
        n = int(dests.shape[0])
        total_msgs += n
        total_bytes += n * machine.message_bytes(float(tg.block_words[b]))
        max_fanout = max(max_fanout, n)
    return CommReport(messages=total_msgs, bytes=total_bytes, max_fanout=max_fanout)


@dataclass(frozen=True)
class SolveCommReport:
    """Predicted solve-phase traffic, split by frame kind.

    Solve frames always travel inline (a fixed 64-byte header plus the
    full float64 fragment), so these byte counts are exact on every
    transport — the runtime's solve ledger must match them integer for
    integer on a fault-free run.
    """

    y_messages: int
    y_bytes: int
    fup_messages: int
    fup_bytes: int
    x_messages: int
    x_bytes: int
    bup_messages: int
    bup_bytes: int

    @property
    def messages(self) -> int:
        return (self.y_messages + self.fup_messages
                + self.x_messages + self.bup_messages)

    @property
    def bytes(self) -> int:
        return self.y_bytes + self.fup_bytes + self.x_bytes + self.bup_bytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.messages} solve messages, {self.bytes / 1e6:.3f} MB "
            f"(Y {self.y_messages}, FUP {self.fup_messages}, "
            f"X {self.x_messages}, BUP {self.bup_messages})"
        )


def solve_communication_volume(
    tg: TaskGraph,
    owners: np.ndarray,
    nrhs: int = 1,
) -> SolveCommReport:
    """Messages/bytes the distributed triangular solve sends under
    ``owners`` for an ``nrhs``-column right-hand side.

    Four traffic classes, mirroring the four solve frame kinds:

    * ``SOLVE_Y`` — each forward-solved panel ``K`` is broadcast to the
      distinct owners of column ``K``'s subdiagonal blocks;
    * ``SOLVE_FUP`` — each subdiagonal block whose owner differs from its
      destination panel's diagonal owner ships one update fragment;
    * ``SOLVE_X`` — each backward-solved panel ``I`` is broadcast to the
      distinct owners of the blocks in row ``I``;
    * ``SOLVE_BUP`` — each rank other than panel ``K``'s diagonal owner
      that owns blocks of column ``K`` ships one share: the backward
      update of all its rows there, ``w_K x nrhs``.

    A frame costs ``64 + 8 * rows * nrhs`` bytes (header + full float64
    fragment; solve payloads are never triangle-packed and never ride the
    arena).
    """
    owners = np.asarray(owners)
    widths = np.asarray(tg.workmodel.structure.partition.widths,
                        dtype=np.int64)
    diag_owner = owners[tg.diag_block]

    y_msgs = y_bytes = 0
    for k, b in enumerate(tg.diag_block):
        sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
        if sub.size == 0:
            continue
        dests = np.unique(owners[sub])
        dests = dests[dests != owners[b]]
        n = int(dests.shape[0])
        y_msgs += n
        y_bytes += n * (64 + 8 * int(widths[k]) * nrhs)

    sub_ids = np.flatnonzero(tg.block_I != tg.block_J)
    fup_msgs = fup_bytes = 0
    for b in sub_ids:
        I = int(tg.block_I[b])
        rows = int(tg.block_words[b]) // int(widths[tg.block_J[b]])
        if int(owners[b]) != int(diag_owner[I]):
            fup_msgs += 1
            fup_bytes += 64 + 8 * rows * nrhs

    bup_msgs = bup_bytes = 0
    for k in range(tg.npanels):
        sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
        n = len(set(owners[sub].tolist()) - {int(diag_owner[k])})
        bup_msgs += n
        bup_bytes += n * (64 + 8 * int(widths[k]) * nrhs)

    x_msgs = x_bytes = 0
    row_owners: dict[int, set] = {}
    for b in sub_ids:
        row_owners.setdefault(int(tg.block_I[b]), set()).add(int(owners[b]))
    for i, dests in row_owners.items():
        n = len(dests - {int(diag_owner[i])})
        x_msgs += n
        x_bytes += n * (64 + 8 * int(widths[i]) * nrhs)

    return SolveCommReport(
        y_messages=y_msgs, y_bytes=y_bytes,
        fup_messages=fup_msgs, fup_bytes=fup_bytes,
        x_messages=x_msgs, x_bytes=x_bytes,
        bup_messages=bup_msgs, bup_bytes=bup_bytes,
    )
