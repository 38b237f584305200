"""Shared-memory block arena: the zero-copy transport backing store.

One POSIX shared-memory segment per run holds every factor block in a
pre-assigned *slot*. The slot map (:class:`ArenaLayout`) is a pure function
of the :class:`~repro.fanout.tasks.TaskGraph`, so the driver and every
worker compute byte-identical layouts independently — no layout metadata
ever travels on a link. A worker that completes a block writes it straight
into its slot and fans out a 64-byte ``BLOCK_REF`` descriptor
(:func:`repro.runtime.wire.pack_block_ref`) naming the slot; consumers map
the slot read-only with ``np.ndarray(buffer=shm.buf, ...)`` and apply
``bmod`` against it with zero payload copies.

Integrity: the descriptor carries a CRC32 of the slot bytes at send time.
:meth:`BlockArena.resolve` recomputes it on receipt, so a corrupted slot
(or a descriptor whose slot metadata was bit-flipped in flight — the frame
header CRC covers that) surfaces as the same
:class:`~repro.runtime.wire.CorruptFrameError` the inline transport raises,
and the job aborts and re-runs.

Storage: slots are row-major float64 and hold exactly the *logical*
payload — ``tg.block_words[b]`` words. A subdiagonal block is the dense
``rows x w`` rectangle; a diagonal block is the packed lower triangle
(``w * (w + 1) / 2`` words, row-major ``np.tril_indices`` order — byte
identical to the inline ``BLOCK`` payload ``wire.pack_block`` produces:
both are :func:`repro.runtime.wire.payload_words`).
Consumers never see the packed form: :meth:`BlockArena.view` /
:meth:`BlockArena.read` / :meth:`BlockArena.resolve` unpack a diagonal
slot into the same freshly-allocated C-contiguous zero-upper square that
``wire.unpack`` builds on the inline transport, so kernel inputs are
bitwise identical across transports (``dtrtrs`` rounds differently for a
C- and an F-contiguous triangle, so the layout must match, not just the
values). Packing matters under variable blocking: square diagonal
slots waste ``w^2 / 2`` words of dead upper triangle, a cost that grows
quadratically with the wide panels the supernodal policy produces.

Each slot starts on a :data:`SLOT_ALIGN`-byte boundary (cache-line
alignment for the zero-copy bmod reads); the tail padding between a slot's
payload and the next slot's offset is the arena's only dead space, and
``ArenaLayout.padding_bytes`` reports it.

The arena is also the gather: a clean job ships no block home. Each rank
reports the ids of its owned blocks and a running CRC32 of their payload,
computed from the values it holds; the driver copies every slot into a
private packed store (:meth:`repro.blocks.plan.NumericPlan.from_arena` —
the slots are reused by the pattern's next job) and recomputes each rank's
CRC from the slots (:meth:`BlockArena.running_crc`). Per-slot look-ups
(offset, extents, the mapped view) are tables built once per layout / per
attachment.

Lifecycle: a pattern's plan creates the arena (:meth:`BlockArena.create`);
its owner — a one-shot call, a façade instance, the service — unlinks it
(:meth:`BlockArena.destroy`) on every exit path. Workers only attach
(:meth:`BlockArena.attach`), so no ``/dev/shm`` segment outlives its owner.
"""

from __future__ import annotations

import zlib
from functools import cached_property

import numpy as np

from repro.config import TRANSPORTS
from repro.runtime import wire

__all__ = [
    "ArenaLayout",
    "BlockArena",
    "shm_available",
    "resolve_transport",
    "TRANSPORTS",
    "SLOT_ALIGN",
]

#: Every slot offset is a multiple of this (bytes). 64 = one cache line;
#: it also keeps float64 alignment trivially satisfied.
SLOT_ALIGN = 64

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
    if transport == "inline":
        return "inline"
    if transport == "auto" and nprocs < 2:
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


class ArenaLayout:
    """Deterministic block -> slot map derived from a :class:`TaskGraph`.

    Slot ``b`` stores exactly the logical payload of global block ``b``
    (``tg.block_words[b]`` float64 words): the packed lower triangle for a
    diagonal block, the dense row-major ``rows x w`` rectangle for a
    subdiagonal block. ``rows``/``cols`` are the block's *logical* extents
    (a diagonal block reports ``w x w`` even though its slot holds the
    triangle) — they are what descriptors advertise and what consumers see
    after unpacking. Slot offsets are :data:`SLOT_ALIGN`-aligned; the
    widths come from the partition, so uniform and supernodal policies each
    get a layout that fits their panels exactly. ``slots[b]`` is slot
    ``b`` as Python ints, ``(offset, rows, cols, words)`` — what the
    per-block operations of :class:`BlockArena` read.
    """

    __slots__ = ("nblocks", "rows", "cols", "diag", "offsets",
                 "logical_words", "block_I", "block_J", "total_bytes",
                 "payload_bytes", "padding_bytes", "slots")

    def __init__(self, tg):
        part = tg.workmodel.structure.partition
        widths = np.asarray(part.widths, dtype=np.int64)
        I = np.asarray(tg.block_I, dtype=np.int64)
        J = np.asarray(tg.block_J, dtype=np.int64)
        diag = I == J
        cols = widths[J]
        logical = np.asarray(tg.block_words, dtype=np.int64)
        rows = np.where(diag, cols, logical // np.maximum(cols, 1))
        self.nblocks = int(I.shape[0])
        self.rows = rows
        self.cols = cols
        self.diag = diag
        self.logical_words = logical
        self.block_I = I
        self.block_J = J
        slot_bytes = logical * 8
        spans = -(-slot_bytes // SLOT_ALIGN) * SLOT_ALIGN  # ceil to align
        self.offsets = np.zeros(self.nblocks + 1, dtype=np.int64)
        np.cumsum(spans, out=self.offsets[1:])
        self.total_bytes = int(self.offsets[-1])
        self.payload_bytes = int(slot_bytes.sum())
        self.padding_bytes = self.total_bytes - self.payload_bytes
        self.slots = list(zip(
            self.offsets[:-1].tolist(), rows.tolist(), cols.tolist(),
            logical.tolist(),
        ))


class BlockArena:
    """A shared-memory segment holding one slot per factor block."""

    def __init__(self, layout: ArenaLayout, shm, owner: bool):
        self.layout = layout
        self.shm = shm
        self.owner = owner

    @property
    def name(self) -> str:
        return self.shm.name

    @classmethod
    def create(cls, tg) -> "BlockArena":
        """Driver side: allocate the segment (layout computed from ``tg``)."""
        from multiprocessing import shared_memory

        layout = ArenaLayout(tg)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, layout.total_bytes)
        )
        return cls(layout, shm, owner=True)

    @classmethod
    def attach(cls, tg, name: str) -> "BlockArena":
        """Worker side: map the driver's segment (never unlinks it)."""
        layout = ArenaLayout(tg)
        shm = _attach_untracked(name)
        if shm.size < layout.total_bytes:
            raise ValueError(
                f"arena segment {name!r} is {shm.size} bytes, layout "
                f"needs {layout.total_bytes}"
            )
        return cls(layout, shm, owner=False)

    # -- slot access ----------------------------------------------------

    @cached_property
    def words(self) -> np.ndarray:
        """The whole segment as float64 words (slot ``b`` starts at word
        ``offsets[b] // 8``)."""
        return np.ndarray(
            (self.layout.total_bytes // 8,), dtype=np.float64,
            buffer=self.shm.buf,
        )

    @cached_property
    def _slots(self) -> list[np.ndarray]:
        """Per slot, the writable view of its stored words, mapped once
        per attachment: ``rows x cols`` for a subdiagonal block, the flat
        packed triangle for a diagonal one."""
        words, lay = self.words, self.layout
        return [
            words[off // 8 : off // 8 + n] if diag
            else words[off // 8 : off // 8 + n].reshape(rows, cols)
            for (off, rows, cols, n), diag in zip(lay.slots, lay.diag.tolist())
        ]

    def write(self, b: int, array: np.ndarray) -> None:
        """Copy a completed block into its slot (the producer's one copy).

        Diagonal blocks are handed over as the full square (however the
        kernel laid it out — bfac yields Fortran order) and stored packed.
        """
        slot = self._slots[b]
        np.copyto(slot, wire.payload_words(array, slot.ndim == 1))

    def view(self, b: int) -> np.ndarray:
        """Consumer-side mapping of slot ``b``: a read-only zero-copy view
        for subdiagonal blocks; for diagonal blocks (the packed triangle
        is a storage format, never a kernel input) the fresh square
        ``wire.unpack`` builds for an inline payload, so kernels see
        bitwise-equal inputs on both transports."""
        slot = self._slots[b]
        if slot.ndim == 1:
            return wire.square_from_packed(slot, self.layout.slots[b][2])
        v = slot.view()
        v.flags.writeable = False
        return v

    def read(self, b: int) -> np.ndarray:
        """A private, writable copy of block ``b`` (outlives the arena);
        the unpacked square for diagonal blocks."""
        return np.array(self.view(b))

    def checksum(self, b: int) -> int:
        """CRC32 over slot ``b``'s stored bytes — the descriptor's payload
        CRC. Tail alignment padding is excluded, so for every block this
        equals the CRC of the inline ``BLOCK`` payload bytes."""
        return zlib.crc32(self._slots[b])

    def running_crc(self, blocks) -> list[int]:
        """:func:`repro.runtime.wire.running_crc` over the stored bytes of
        slots ``blocks`` — what the rank holding those blocks reported
        (:attr:`~repro.runtime.worker.WorkerResult.held`)."""
        return wire.running_crc(map(self._slots.__getitem__, blocks))

    # -- wire integration ----------------------------------------------

    def pack_ref(self, src: int, b: int) -> bytes:
        """Build the 64-byte descriptor frame for slot ``b``."""
        off, rows, cols, words = self.layout.slots[b]
        return wire.pack_block_ref(
            src, b, rows, cols, words, off, self.checksum(b)
        )

    def resolve(self, msg: wire.WireMessage) -> wire.WireMessage:
        """Turn a ``BLOCK_REF`` descriptor into a BLOCK message whose
        payload is the consumer-side mapping of the slot (zero-copy
        read-only view for subdiagonal blocks, unpacked square for
        diagonal blocks — exactly what the inline transport would have
        delivered).

        Raises :class:`~repro.runtime.wire.CorruptFrameError` when the
        descriptor's slot metadata disagrees with the layout or the slot
        bytes fail the descriptor's payload CRC — the same typed error as
        inline payload corruption.
        """
        lay = self.layout
        b = msg.block
        if not (
            0 <= b < lay.nblocks
            and (msg.offset, msg.rows, msg.cols, msg.words) == lay.slots[b]
        ):
            raise wire.CorruptFrameError(
                f"BLOCK_REF descriptor for block {b} disagrees with the "
                "arena layout",
                src=msg.src, block=b,
            )
        if msg.payload_crc != self.checksum(b):
            raise wire.CorruptFrameError(
                f"arena slot CRC mismatch for block {b} "
                f"(descriptor {msg.payload_crc:#010x})",
                src=msg.src, block=b,
            )
        return wire.WireMessage(
            wire.BLOCK, msg.src, b, msg.rows, msg.cols, self.view(b),
            msg.words, msg.offset, msg.payload_crc,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (safe to call repeatedly)."""
        # The mapped views export the segment's buffer; let go of them
        # first or the unmap is refused.
        self.__dict__.pop("_slots", None)
        self.__dict__.pop("words", None)
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
