"""Shared-memory factor store: the shm transport's one copy of the factor.

One POSIX shared-memory segment per pattern holds the whole factor in the
layout of the structure's :class:`~repro.blocks.plan.NumericPlan` —
``plan.size`` float64 words, panel K one row-major ``(w + r) x w`` slab
whose first ``w`` rows are its diagonal block — the layout every
:class:`~repro.numeric.blockfact.BlockCholesky` already uses. Each worker's
factor is a view of it (:attr:`BlockArena.factor`, carved once per
attachment): a rank sets the words of the blocks it owns to its share of
``A`` (the per-rank word map of
:meth:`repro.runtime.pool.PatternContext.init_map`), runs PFAC / PMOD in
place on them, and reads a peer's final block where its owner wrote it.
No block is ever copied between ranks.

Descriptors: a rank that finishes a block takes its CRC32 once
(:meth:`BlockArena.checksum`) and fans out a 64-byte ``BLOCK_REF``
(:meth:`BlockArena.pack_ref`, :func:`repro.runtime.wire.pack_block_ref`)
naming it: the byte offset of its first word, its ``rows x cols`` and its
*logical* payload words (``tg.block_words``, what the static predictor
charges, so byte accounting is transport-independent), and that CRC. The
layout is a function of the structure, so the driver and every worker
build the same block table independently and none of it travels.
:meth:`BlockArena.check` holds a descriptor to the table and the block's
stored bytes to its CRC; a disagreement is the same
:class:`~repro.runtime.wire.CorruptFrameError` the inline transport
raises for a corrupt payload, and the job aborts and re-runs. Once peers
read each other's blocks in place, that check is the only guard against
reading the wrong words.

The CRC covers a block's stored words: a subdiagonal block's slab rows, a
diagonal block's whole ``w x w`` square (its upper triangle is dead —
zero once ``bfac`` wrote ``L_KK`` — and is the store's only dead space).

The store is also the gather: a clean job ships no block home. Each rank
reports the ids of its blocks and the CRC it took of each when it
published it; the driver makes one copy of the store into private memory
(the next job of the pattern factors in the segment again) and checks
every block against its CRC (:meth:`BlockArena.checksums`) — the
segment is quiescent between two jobs, so the copy holds the same bytes.

Lifecycle: a pattern's plan creates the segment (:meth:`BlockArena.create`);
its owner — a one-shot call, a façade instance, the service — unlinks it
(:meth:`BlockArena.destroy`) on every exit path. Workers only attach
(:meth:`BlockArena.attach`), so no ``/dev/shm`` segment outlives its owner.
"""

from __future__ import annotations

import zlib
from functools import cached_property

import numpy as np

from repro.config import TRANSPORTS
from repro.numeric.blockfact import BlockCholesky
from repro.runtime import wire

__all__ = [
    "BlockArena",
    "shm_available",
    "resolve_transport",
    "TRANSPORTS",
]

_SHM_PROBED: bool | None = None


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works on this platform.

    Probes once per process by creating (and immediately unlinking) a tiny
    segment; the result is cached.
    """
    global _SHM_PROBED
    if _SHM_PROBED is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=8)
            seg.close()
            seg.unlink()
            _SHM_PROBED = True
        except Exception:
            _SHM_PROBED = False
    return _SHM_PROBED


def resolve_transport(transport: str, nprocs: int) -> str:
    """Resolve a requested transport to a concrete one.

    ``"auto"`` picks ``"shm"`` when shared memory works and there is more
    than one worker (a single worker never fans out, and the gather alone
    does not justify a segment), else ``"inline"``. An explicit ``"shm"``
    raises when the platform cannot honor it.
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if transport == "inline" or (transport == "auto" and nprocs < 2):
        return "inline"
    if shm_available():
        return "shm"
    if transport == "shm":
        raise RuntimeError(
            "transport='shm' requested but multiprocessing.shared_memory is "
            "unavailable on this platform; use transport='auto' to fall "
            "back to the inline transport"
        )
    return "inline"


def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker registration.

    The driver owns the segment's lifetime; if workers registered their
    attachments, each worker's resource tracker would try to unlink the
    segment at exit (and warn about a leak), racing the driver's cleanup.
    Python 3.13+ has ``track=False`` for exactly this; on older versions we
    suppress the registration call during attach (register/unregister pairs
    are unsafe under fork, where all workers share one tracker process and
    the tracker's name cache is a set, not a refcount).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register

    def _no_register(rname, rtype):
        if rtype != "shared_memory":  # pragma: no cover - not hit in attach
            orig_register(rname, rtype)

    resource_tracker.register = _no_register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


class BlockArena:
    """A shared-memory segment holding the factor store of a task graph's
    structure, and the table of where each of its blocks lies."""

    def __init__(self, tg, shm, owner: bool):
        self.structure = tg.workmodel.structure
        plan = self.structure.numeric_plan()
        if shm.size < 8 * plan.size:
            raise ValueError(
                f"arena segment {shm.name!r} is {shm.size} bytes, the "
                f"store needs {8 * plan.size}"
            )
        self.shm = shm
        self.owner = owner
        self.size = plan.size
        start, size = plan.block_spans(tg.block_I, tg.block_J)
        cols = np.asarray(self.structure.partition.widths)[tg.block_J]
        #: Per block, its descriptor fields ``(offset, rows, cols, words)``
        #: as Python ints: its ``rows x cols`` stored words start at byte
        #: ``offset`` of the store; ``words`` is its logical payload.
        self.refs = list(zip(
            (8 * start).tolist(), (size // cols).tolist(), cols.tolist(),
            np.asarray(tg.block_words).tolist(),
        ))

    @property
    def name(self) -> str:
        return self.shm.name

    @classmethod
    def create(cls, tg) -> "BlockArena":
        """Driver side: allocate the segment."""
        from multiprocessing import shared_memory

        size = 8 * tg.workmodel.structure.numeric_plan().size
        shm = shared_memory.SharedMemory(create=True, size=max(1, size))
        return cls(tg, shm, owner=True)

    @classmethod
    def attach(cls, tg, name: str) -> "BlockArena":
        """Worker side: map the driver's segment (never unlinks it)."""
        return cls(tg, _attach_untracked(name), owner=False)

    # -- block access ---------------------------------------------------

    @cached_property
    def store(self) -> np.ndarray:
        """The factor store: the segment as ``plan.size`` float64 words."""
        return np.ndarray((self.size,), dtype=np.float64, buffer=self.shm.buf)

    @cached_property
    def factor(self) -> BlockCholesky:
        """The factor whose every block is a view of the store, carved
        once per attachment (:meth:`BlockCholesky.over`)."""
        return BlockCholesky.over(self.structure, self.store)

    @cached_property
    def _blocks(self) -> list[np.ndarray]:
        """Per block, the writable ``rows x cols`` view of its words."""
        store = self.store
        return [store[off // 8 : off // 8 + rows * cols].reshape(rows, cols)
                for off, rows, cols, _ in self.refs]

    def write(self, b: int, array: np.ndarray) -> None:
        """Copy ``array`` (``rows x cols``, any memory layout; a diagonal
        block is its whole square) into block ``b``."""
        self._blocks[b][...] = array

    def view(self, b: int) -> np.ndarray:
        """A read-only view of block ``b`` where it lies in the store."""
        v = self._blocks[b].view()
        v.flags.writeable = False
        return v

    def checksum(self, b: int) -> int:
        """CRC32 of block ``b``'s stored bytes — the descriptor's payload
        CRC."""
        return zlib.crc32(self._blocks[b])

    def checksums(self, blocks) -> np.ndarray:
        """:meth:`checksum` of each of ``blocks``, as a ``uint32`` array."""
        return np.fromiter(
            map(zlib.crc32, map(self._blocks.__getitem__, blocks)),
            np.uint32, len(blocks),
        )

    # -- wire integration ----------------------------------------------

    def pack_ref(self, src: int, b: int, crc: int | None = None) -> bytes:
        """The 64-byte descriptor frame of block ``b``, whose CRC is
        ``crc`` (taken now when None)."""
        off, rows, cols, words = self.refs[b]
        return wire.pack_block_ref(
            src, b, rows, cols, words, off,
            self.checksum(b) if crc is None else crc,
        )

    def check(self, msg: wire.WireMessage) -> None:
        """Check a ``BLOCK_REF`` descriptor: it must name its block exactly
        as the block table lays it out, and the block's stored bytes must
        match its payload CRC. Raises
        :class:`~repro.runtime.wire.CorruptFrameError` otherwise — the same
        typed error as inline payload corruption."""
        b = msg.block
        if not (0 <= b < len(self.refs) and (
            msg.offset, msg.rows, msg.cols, msg.words) == self.refs[b]
        ):
            raise wire.CorruptFrameError(
                f"BLOCK_REF descriptor for block {b} disagrees with the "
                "arena layout",
                src=msg.src, block=b,
            )
        if msg.payload_crc != self.checksum(b):
            raise wire.CorruptFrameError(
                f"arena CRC mismatch for block {b} "
                f"(descriptor {msg.payload_crc:#010x})",
                src=msg.src, block=b,
            )

    def resolve(self, msg: wire.WireMessage) -> wire.WireMessage:
        """:meth:`check` a ``BLOCK_REF`` descriptor, then turn it into a
        BLOCK message whose payload is the read-only view of the block in
        the store."""
        self.check(msg)
        return wire.WireMessage(
            wire.BLOCK, msg.src, msg.block, msg.rows, msg.cols,
            self.view(msg.block), msg.words, msg.offset, msg.payload_crc,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (safe to call repeatedly)."""
        # The views export the segment's buffer; let go of them first or
        # the unmap is refused.
        for key in ("factor", "_blocks", "store"):
            self.__dict__.pop(key, None)
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - outstanding ndarray views
            pass

    def destroy(self) -> None:
        """Driver-side teardown: unmap and unlink the segment."""
        self.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
