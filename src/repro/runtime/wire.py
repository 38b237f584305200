"""Serialized block wire format for the message-passing runtime.

Every message on a link is one *frame*: a fixed 64-byte header followed by
the block payload as little-endian float64 words. The header size equals
``MachineParams.header_bytes`` and diagonal blocks travel as their packed
lower triangle (``w*(w+1)/2`` words — the only significant part of
``L_KK``), so a frame's byte length is exactly the
``machine.message_bytes(block_words)`` that the static predictor
:func:`repro.analysis.comm_volume.communication_volume` charges. Measured
and predicted communication volume are therefore directly comparable,
message for message and byte for byte.

Integrity: the header carries a CRC32 over the header fields and the
payload words. :func:`unpack` recomputes it, so a flipped bit anywhere in
the frame is detected as :class:`CorruptFrameError` instead of silently
landing in the factor. Malformed frames of any kind raise the typed
:class:`WireError` (a :class:`ValueError`) — callers never see a raw
``struct.error``.

Frame kinds
-----------
``BLOCK``
    A completed factor block fanned out to a consumer (or gathered to the
    driver at shutdown). ``block`` is the global block index; ``rows`` /
    ``cols`` are the dense block shape.
``BLOCK_REF``
    Shared-memory transport descriptor: a fixed 64-byte header-only frame
    naming where a completed block lies in the arena's shared store
    instead of carrying the payload. The prefix is identical to ``BLOCK``
    (``nwords`` still holds the *logical* payload words, so logical byte
    accounting is transport independent); the pad region carries the
    block's byte offset in the store and a CRC32 of its stored bytes, both
    covered by the frame CRC, and zeros. Consumers read the block in place
    once :class:`repro.runtime.arena.BlockArena` has checked both.
``ABORT``
    A worker hit an error (a frame that failed its CRC included); peers
    stop promptly and the job fails, to be re-run from scratch.
    Payload-free.
``DONE``
    Dynamic-schedule control: the sender finished all of its own tasks
    and lingers only to answer steal requests until every peer is done.
    Payload-free.
``STEAL_REQ`` / ``STEAL_DENY``
    Work-stealing control (``schedule="dynamic"``): an idle thief asks a
    victim for one ready task / the victim has nothing grantable.
    Payload-free; ``block`` carries the thief's steal round.
``STEAL_GRANT`` / ``STEAL_RESULT``
    Work-stealing data: the victim ships a granted task's *destination
    block state* (``block`` carries the task id, the payload the partial
    block, triangle-packed when diagonal); the thief runs the identical
    kernel on those bytes and ships the resulting state back. Because the
    same kernel sees the same input bytes in the same canonical
    accumulation position, the factor stays bitwise identical to a static
    run.
``STEAL_SHIP``
    Work-stealing data: a final source block a granted task needs,
    prepended to the grant on the inline transport (shm thieves read
    sources from the arena instead). Laid out exactly like ``BLOCK`` but
    applied without dependency bookkeeping at the thief.

Steal frames ride a *reliable* plane: they are not in ``DATA_KINDS``, so
the fault injector never drops/corrupts them, and they are counted in a
separate steal ledger so ``messages``/``bytes`` stay exactly equal to
the static communication-volume prediction.

``SOLVE_Y`` / ``SOLVE_X``
    Triangular-solve phase: a solved right-hand-side panel fanned out to
    the owners of the blocks that consume it (forward / backward
    respectively). ``block`` carries the *panel* index; the payload is the
    full ``w x nrhs`` panel. Factor blocks never ride these frames — the
    solve phase reads them where they already live.
``SOLVE_FUP`` / ``SOLVE_BUP``
    Triangular-solve phase: an update shipped to the diagonal owner of
    the panel that absorbs it — forward, one block's rows of its column's
    update; backward, one rank's share of a column, named by its first
    block. ``block`` carries that global *block* index so the receiver
    can place the update in the canonical accumulation order.

Solve frames form their own ledger (``SOLVE_KINDS``): like the steal
plane they are outside ``DATA_KINDS`` (the solve phase moves right-hand
sides, not factor blocks), and their logical bytes always equal their
wire bytes — RHS panels are small and never live in the arena, so even
the shm transport ships them inline.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.util.arrays import tril_flat

#: Frame kinds (3 is unused).
BLOCK, ABORT, DONE, BLOCK_REF = 1, 2, 4, 5
STEAL_REQ, STEAL_GRANT, STEAL_DENY, STEAL_SHIP, STEAL_RESULT = 6, 7, 8, 9, 10
SOLVE_Y, SOLVE_FUP, SOLVE_X, SOLVE_BUP = 11, 12, 13, 14

#: Payload-free control kinds (never fault-injected, never CRC-protected
#: payloads — there is no payload).
CONTROL_KINDS = (ABORT, DONE, STEAL_REQ, STEAL_DENY)

#: Kinds that carry (or reference) factor-block data — the fault
#: injector's targets, and the frames counted as data traffic.
DATA_KINDS = (BLOCK, BLOCK_REF)

#: Work-stealing plane (control + migrated task state). Kept out of
#: ``DATA_KINDS`` so the injector leaves them alone and the data ledgers
#: stay equal to the static predictor.
STEAL_KINDS = (STEAL_REQ, STEAL_GRANT, STEAL_DENY, STEAL_SHIP, STEAL_RESULT)

#: Steal kinds that carry a block-state payload (framed like ``BLOCK``).
_STEAL_PAYLOAD_KINDS = (STEAL_GRANT, STEAL_SHIP, STEAL_RESULT)

#: Triangular-solve plane: RHS panel fragments and update contributions.
#: Outside ``DATA_KINDS`` (no factor blocks ride here) and counted in
#: their own solve ledger; logical bytes == wire bytes on every transport.
SOLVE_KINDS = (SOLVE_Y, SOLVE_FUP, SOLVE_X, SOLVE_BUP)

#: Wire header prefix: magic, kind, src rank, block id, rows, cols,
#: payload words. The CRC32 field follows immediately after.
_PREFIX = struct.Struct("<4sBiiiiq")
_CRC = struct.Struct("<I")
#: Fixed frame header size — matches ``MachineParams.header_bytes``.
HEADER_BYTES = 64
_MAGIC = b"RSB2"
_PAD = b"\0" * (HEADER_BYTES - _PREFIX.size - _CRC.size)

#: BLOCK_REF block metadata, packed into the pad region right after the
#: CRC field: the block's byte offset in the arena's store (q) + CRC32 of
#: its stored bytes (I).
_REF = struct.Struct("<qI")
#: Byte offset of the block metadata inside a BLOCK_REF frame — also the
#: region the fault injector bit-flips to emulate payload corruption.
REF_REGION_START = _PREFIX.size + _CRC.size
REF_REGION_LEN = _REF.size
_REF_PAD = b"\0" * (HEADER_BYTES - REF_REGION_START - _REF.size)


class WireError(ValueError):
    """A frame could not be decoded (truncated, bad magic, bad shape)."""


class CorruptFrameError(WireError):
    """The frame parsed but its CRC32 check failed.

    ``src`` and ``block`` carry the header's (best-effort, possibly
    corrupted themselves) values, so the error can name the presumed
    sender and block.
    """

    def __init__(self, message: str, src: int = -1, block: int = -1):
        super().__init__(message)
        self.src = src
        self.block = block


@dataclass(frozen=True)
class WireMessage:
    """A decoded frame.

    ``words`` is the *logical* payload size in float64 words (the packed
    triangle for diagonal blocks) — what the static predictor charges —
    regardless of how the payload traveled. For ``BLOCK_REF`` descriptors
    ``payload`` is ``None`` — the block is read where it lies in the
    arena's store (:meth:`BlockArena.resolve` makes the view) —
    and ``offset``/``payload_crc`` carry the descriptor's block metadata.
    """

    kind: int
    src: int
    block: int
    rows: int
    cols: int
    payload: np.ndarray | None
    words: int = 0
    offset: int = -1
    payload_crc: int = 0

    @property
    def nbytes(self) -> int:
        """Logical frame bytes — equals ``machine.message_bytes(words)``."""
        words = self.words
        if not words and self.payload is not None:
            words = self.payload.size
        return HEADER_BYTES + 8 * words


def _frame(kind: int, src: int, block: int, rows: int, cols: int,
           payload: bytes = b"") -> bytes:
    prefix = _PREFIX.pack(
        _MAGIC, kind, src, block, rows, cols, len(payload) // 8
    )
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return b"".join((prefix, _CRC.pack(crc), _PAD, payload))


def payload_words(array: np.ndarray, diagonal: bool) -> np.ndarray:
    """A C-contiguous float64 array whose bytes, in order, are the block's
    logical payload — what a ``BLOCK`` frame carries: the packed lower
    triangle (row-major,
    :func:`~repro.util.arrays.tril_flat`) of a diagonal block, else the
    dense row-major ``rows x cols`` array itself."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("block payload must be a 2-D array")
    if diagonal:
        if arr.shape[0] != arr.shape[1]:
            raise ValueError("diagonal block must be square")
        return arr.take(tril_flat(arr.shape[0]))
    return arr


def square_from_packed(words: np.ndarray, w: int) -> np.ndarray:
    """The diagonal block a packed triangle stands for: a fresh, writable,
    C-contiguous ``w x w`` square with an explicitly zero upper triangle —
    one layout on every transport, because ``dtrtrs`` rounds differently
    for a C- and an F-ordered triangle."""
    out = np.zeros((w, w))
    out.ravel()[tril_flat(w)] = words
    return out


def pack_block(
    src: int, block: int, I: int, J: int, array: np.ndarray
) -> bytes:
    """Serialize factor block ``(I, J)`` (global index ``block``).

    Diagonal blocks (``I == J``) ship only the lower triangle; subdiagonal
    blocks ship the full dense ``rows x cols`` array.
    """
    words = payload_words(array, I == J)
    rows, cols = np.shape(array)
    return _frame(BLOCK, src, block, rows, cols, words.tobytes())


def pack_block_ref(
    src: int, block: int, rows: int, cols: int, words: int,
    offset: int, payload_crc: int,
) -> bytes:
    """Serialize a shared-memory descriptor for block ``block``.

    ``words`` is the logical payload word count (``tg.block_words``),
    ``offset`` the block's byte offset in the arena's store,
    ``payload_crc`` a CRC32 of its stored bytes when it was published. The
    frame CRC covers the prefix and the block metadata, so in-flight
    corruption of either is detected exactly like inline-frame corruption.
    """
    prefix = _PREFIX.pack(_MAGIC, BLOCK_REF, src, block, rows, cols, words)
    extra = _REF.pack(offset, payload_crc)
    crc = zlib.crc32(extra, zlib.crc32(prefix))
    return b"".join((prefix, _CRC.pack(crc), extra, _REF_PAD))


def pack_abort(src: int) -> bytes:
    """Serialize a payload-free ABORT frame."""
    return _frame(ABORT, src, -1, 0, 0)


def pack_done(src: int) -> bytes:
    """Serialize a DONE frame: ``src`` finished its own task list."""
    return _frame(DONE, src, -1, 0, 0)


def _pack_state(kind: int, src: int, ref: int, square: bool,
                array: np.ndarray) -> bytes:
    """Frame a block-state payload for the steal plane (triangle-packed
    when ``square`` — bit-exact for the significant lower triangle, same
    byte accounting as ``BLOCK``)."""
    words = payload_words(array, square)
    rows, cols = np.shape(array)
    return _frame(kind, src, ref, rows, cols, words.tobytes())


def pack_steal_req(src: int, round_: int) -> bytes:
    """Serialize a STEAL_REQ: thief ``src`` asks for one ready task.
    ``block`` carries the thief's steal round (diagnostic only)."""
    return _frame(STEAL_REQ, src, round_, 0, 0)


def pack_steal_deny(src: int, round_: int) -> bytes:
    """Serialize a STEAL_DENY: victim ``src`` has nothing grantable."""
    return _frame(STEAL_DENY, src, round_, 0, 0)


def pack_steal_grant(src: int, tid: int, diagonal: bool,
                     state: np.ndarray) -> bytes:
    """Serialize a STEAL_GRANT: victim ``src`` migrates task ``tid``
    (carried in the ``block`` field) with its destination block's current
    partial state as the payload."""
    return _pack_state(STEAL_GRANT, src, tid, diagonal, state)


def pack_steal_result(src: int, tid: int, diagonal: bool,
                      state: np.ndarray) -> bytes:
    """Serialize a STEAL_RESULT: thief ``src`` returns task ``tid``'s
    post-execution destination block state."""
    return _pack_state(STEAL_RESULT, src, tid, diagonal, state)


def pack_steal_ship(src: int, block: int, I: int, J: int,
                    array: np.ndarray) -> bytes:
    """Serialize a STEAL_SHIP: a final source block a granted task needs,
    laid out exactly like ``BLOCK`` but applied without bookkeeping."""
    return _pack_state(STEAL_SHIP, src, block, I == J, array)


def _pack_solve(kind: int, src: int, ref: int, array: np.ndarray) -> bytes:
    """Frame a solve-phase payload: always the full ``rows x nrhs``
    fragment (never triangle-packed — these are right-hand sides)."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("solve payload must be a 2-D array")
    rows, cols = arr.shape
    return _frame(kind, src, ref, rows, cols, arr.ravel().tobytes())


def pack_solve_y(src: int, panel: int, array: np.ndarray) -> bytes:
    """Serialize a SOLVE_Y: forward-solved panel ``panel`` fanned out to
    the owners of the subdiagonal blocks in its column."""
    return _pack_solve(SOLVE_Y, src, panel, array)


def pack_solve_fup(src: int, block: int, array: np.ndarray) -> bytes:
    """Serialize a SOLVE_FUP: block ``block``'s forward update shipped to
    its destination panel's diagonal owner."""
    return _pack_solve(SOLVE_FUP, src, block, array)


def pack_solve_x(src: int, panel: int, array: np.ndarray) -> bytes:
    """Serialize a SOLVE_X: backward-solved panel ``panel`` fanned out to
    the owners of the blocks in its row."""
    return _pack_solve(SOLVE_X, src, panel, array)


def pack_solve_bup(src: int, block: int, array: np.ndarray) -> bytes:
    """Serialize a SOLVE_BUP: the backward share of a column whose first
    block is ``block``, shipped to that column's diagonal owner."""
    return _pack_solve(SOLVE_BUP, src, block, array)


def unpack(frame: bytes, copy: bool = True) -> WireMessage:
    """Decode one frame back into a :class:`WireMessage`.

    Diagonal payloads are unpacked from the packed triangle into a full
    square array with an explicitly zero upper triangle. With
    ``copy=False`` a full (subdiagonal) payload is returned as a read-only
    zero-copy view over the frame bytes — safe whenever the caller owns
    the frame buffer and only reads the block, which is every runtime
    consumer (``bmod``/``bdiv`` sources are never written). Raises
    :class:`WireError` on malformed input and :class:`CorruptFrameError`
    on a CRC mismatch.
    """
    if len(frame) < HEADER_BYTES:
        raise WireError("frame shorter than the wire header")
    try:
        magic, kind, src, block, rows, cols, nwords = _PREFIX.unpack_from(
            frame
        )
        (crc,) = _CRC.unpack_from(frame, _PREFIX.size)
    except struct.error as exc:  # pragma: no cover - length checked above
        raise WireError(f"undecodable frame header: {exc}") from exc
    if magic != _MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if kind == BLOCK_REF:
        # Header-only descriptor: nwords is the *logical* payload size;
        # no payload bytes follow. The CRC covers prefix + block metadata,
        # and the rest of the header must be the zero pad.
        offset, payload_crc = _REF.unpack_from(frame, REF_REGION_START)
        region = frame[REF_REGION_START:REF_REGION_START + _REF.size]
        if frame[REF_REGION_START + _REF.size : HEADER_BYTES] != _REF_PAD:
            raise WireError("BLOCK_REF descriptor with a non-zero pad")
        expect = zlib.crc32(region, zlib.crc32(frame[: _PREFIX.size]))
        if crc != expect:
            raise CorruptFrameError(
                f"CRC mismatch on BLOCK_REF descriptor (src={src}, "
                f"block={block}): stored {crc:#010x}, "
                f"computed {expect:#010x}",
                src=src,
                block=block,
            )
        if nwords < 0 or rows < 0 or cols < 0 or offset < 0:
            raise WireError("malformed BLOCK_REF descriptor")
        return WireMessage(BLOCK_REF, src, block, rows, cols, None,
                           words=nwords, offset=offset,
                           payload_crc=payload_crc)
    if nwords < 0 or HEADER_BYTES + 8 * nwords > len(frame):
        raise WireError(
            f"frame truncated: header promises {nwords} payload words, "
            f"{len(frame) - HEADER_BYTES} bytes follow"
        )
    payload_bytes = frame[HEADER_BYTES : HEADER_BYTES + 8 * nwords]
    expect = zlib.crc32(payload_bytes, zlib.crc32(frame[: _PREFIX.size]))
    if crc != expect:
        raise CorruptFrameError(
            f"CRC mismatch on frame (kind={kind}, src={src}, "
            f"block={block}): stored {crc:#010x}, "
            f"computed {expect:#010x}",
            src=src,
            block=block,
        )
    if kind in CONTROL_KINDS:
        return WireMessage(kind, src, block, 0, 0, None)
    if (
        kind != BLOCK
        and kind not in _STEAL_PAYLOAD_KINDS
        and kind not in SOLVE_KINDS
    ):
        raise WireError(f"unknown frame kind {kind}")
    words = np.frombuffer(frame, dtype="<f8", count=nwords, offset=HEADER_BYTES)
    if 0 <= rows == cols and nwords == rows * (rows + 1) // 2:
        payload = square_from_packed(words, rows)
    elif nwords == rows * cols and rows >= 0 and cols >= 0:
        # np.frombuffer over bytes is already read-only, so the no-copy
        # view cannot be mutated behind the frame's back.
        payload = words.reshape(rows, cols)
        if copy:
            payload = payload.copy()
    else:
        raise WireError(
            f"payload size {nwords} matches neither full ({rows}x{cols}) "
            "nor packed-triangular storage"
        )
    return WireMessage(kind, src, block, rows, cols, payload, words=nwords)


def frame_kind(frame: bytes) -> int:
    """Cheap peek at a frame's kind byte without full decoding."""
    if len(frame) <= 4:
        raise WireError("frame shorter than the kind byte")
    return frame[4]


def frame_block(frame: bytes) -> int:
    """Cheap peek at a frame's block id without full decoding."""
    if len(frame) < _PREFIX.size:
        raise WireError("frame shorter than the wire header prefix")
    return int.from_bytes(frame[9:13], "little", signed=True)
