"""Per-link message channels standing in for the interconnect.

The fabric owns one multiprocessing inbox queue per worker (its NIC receive
port). A :class:`Link` is a directed ``src -> dst`` virtual channel over the
destination's inbox; each worker instantiates its row of outgoing links
inside its own process, so the per-link message/byte counters are local,
race-free, and shipped home with the worker's metrics. Summed over links,
the ``messages``/``bytes`` counters reproduce exactly what the static
predictor (:func:`repro.analysis.comm_volume.communication_volume`) counts.

Two byte ledgers per link:

``bytes``
    *Logical* traffic — the frame bytes the wire contract charges
    (``header + 8 * block_words``), identical across transports and equal
    to the static prediction. This is what validation reconciles.
``wire_bytes``
    *Transported* traffic — ``len(frame)`` actually put on the queue.
    Equal to ``bytes`` on the inline transport; collapses to 64 bytes per
    message on the shared-memory transport (header-only descriptors).

Coalescing: on every transport, data and solve frames accumulate in a
per-link pending batch and ship as **one** queue put per drain
(:meth:`flush_pending`) — one pickling round-trip per ``(src, dst)`` burst
instead of one per frame. Control and steal frames flush the batch first
so data-before-control ordering is preserved.
"""

from __future__ import annotations

#: Auto-flush threshold for coalesced batches; bounds receiver latency
#: when a producer emits a long run of blocks between drains.
COALESCE_MAX = 16


class Link:
    """Directed ``src -> dst`` channel with traffic counters.

    Data frames (:meth:`send`) and control frames (:meth:`send_control`)
    are counted separately: the ``messages``/``bytes`` counters track only
    block traffic, so they stay directly comparable to the static
    communication-volume predictor whatever ABORT/DONE control frames
    travel on the side.
    """

    __slots__ = ("src", "dst", "queue", "messages", "bytes", "wire_bytes",
                 "control_messages", "steal_messages",
                 "steal_bytes", "solve_messages", "solve_bytes", "_pending")

    def __init__(self, src: int, dst: int, queue):
        self.src = src
        self.dst = dst
        self.queue = queue
        self.messages = 0
        self.bytes = 0
        self.wire_bytes = 0
        self.control_messages = 0
        self.steal_messages = 0
        self.steal_bytes = 0
        self.solve_messages = 0
        self.solve_bytes = 0
        self._pending: list[bytes] = []

    def _count(self, frame: bytes, nbytes: int | None) -> None:
        self.messages += 1
        self.bytes += len(frame) if nbytes is None else int(nbytes)
        self.wire_bytes += len(frame)

    def _put(self, frame: bytes) -> None:
        self._pending.append(frame)
        if len(self._pending) >= COALESCE_MAX:
            self.flush_pending()

    def send(self, frame: bytes, nbytes: int | None = None) -> None:
        """Put one data (block) frame in the link's batch (never blocks:
        queues are unbounded, buffered by a feeder thread).

        ``nbytes`` is the frame's *logical* byte size; it defaults to
        ``len(frame)``, which is exact for the inline transport.
        """
        self._count(frame, nbytes)
        self._put(frame)

    def send_control(self, frame: bytes) -> None:
        """Put one control frame (ABORT/DONE) on the link; counted
        apart from data traffic. Flushes any coalesced data first so the
        receiver never sees control overtake the data it refers to."""
        self.flush_pending()
        self.queue.put(frame)
        self.control_messages += 1

    def send_steal(self, frame: bytes) -> None:
        """Put one work-stealing frame (REQ/GRANT/DENY/SHIP/RESULT) on
        the link, on its own ledger: never coalesced, never fault-injected
        (outside ``wire.DATA_KINDS``). Flushes coalesced data first so a
        grant never overtakes the blocks it refers to."""
        self.flush_pending()
        self.queue.put(frame)
        self.steal_messages += 1
        self.steal_bytes += len(frame)

    def send_solve(self, frame: bytes) -> None:
        """Put one triangular-solve frame (Y/FUP/X/BUP) in the link's
        batch, on its own ledger (the solve predictor's). RHS fragments
        always carry their payload, so logical bytes are ``len(frame)``."""
        self._put(frame)
        self.solve_messages += 1
        self.solve_bytes += len(frame)

    def flush_pending(self) -> None:
        """Ship the coalesced batch as a single queue put (a lone frame
        ships bare, so receivers see the same item types either way)."""
        if self._pending:
            batch, self._pending = self._pending, []
            self.queue.put(batch if len(batch) > 1 else batch[0])

    def flush(self) -> None:
        """Release everything the link holds back: the coalesced batch
        here, plus fault-injected delayed frames in the faulty subclass."""
        self.flush_pending()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Link({self.src}->{self.dst}, msgs={self.messages}, "
            f"bytes={self.bytes})"
        )


class LinkFabric:
    """The all-to-all interconnect of an ``nprocs``-worker runtime.

    Created in the driver process (the queues must exist before fork/spawn)
    and shipped to every worker; a worker then asks for its
    :meth:`outgoing` links and its own :meth:`inbox`.
    """

    def __init__(self, nprocs: int, ctx):
        if nprocs < 1:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.inboxes = [ctx.Queue() for _ in range(nprocs)]

    def inbox(self, rank: int):
        return self.inboxes[rank]

    def outgoing(self, src: int) -> dict[int, Link]:
        """Links from ``src`` to every other worker (call in the worker)."""
        return {
            dst: Link(src, dst, self.inboxes[dst])
            for dst in range(self.nprocs)
            if dst != src
        }

    def shutdown(self) -> None:
        """Drain and release the queues (driver-side cleanup)."""
        for q in self.inboxes:
            try:
                while True:
                    q.get_nowait()
            except Exception:
                pass
            q.close()
            q.cancel_join_thread()
