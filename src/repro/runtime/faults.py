"""Deterministic fault injection for the message-passing runtime.

A :class:`FaultPlan` describes *what goes wrong* in a run: worker crashes
after the k-th task, message drop / duplication / delay (which reorders),
bit-flip corruption of payload or header bytes, and slow-worker
throttling. Every message-level decision is drawn from a counter-based RNG
keyed on ``(seed, attempt, src, dst, block, occurrence)``, so a plan is
fully reproducible from its seed: the same block's n-th transmission on a
given link always suffers the same fate, independent of OS scheduling.

Faults are injected at the ``links``/``worker`` boundary: each worker
wraps its outgoing :class:`~repro.runtime.links.Link` objects in
:class:`FaultyLink` (message faults) and consults :meth:`FaultPlan.crash_for`
/ :attr:`FaultPlan.slow` in its event loop (process faults). Control
frames (ABORT/DONE) are never faulted — the virtual interconnect's
control plane is reliable, like a dedicated service network.

A job is fail-stop: a corrupt or repeated frame raises at its receiver,
a dropped one stalls it until the short watchdog of a faulty job fires,
and either aborts the attempt; the recovery loop
(:mod:`repro.runtime.recovery`) re-runs the job from scratch. Faults are
*transient* by default: message faults fire on attempt 0 only, and so
does a crash unless ``every_attempt=True`` makes it persistent (which
forces the sequential fallback) — so the re-run sees the fault
disappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.runtime import wire
from repro.runtime.links import Link

#: Message-fault classes, in the order their probabilities are drawn.
MESSAGE_FAULTS = ("drop", "corrupt", "corrupt_header", "delay", "duplicate")

#: Every fault class a plan can express (chaos sweeps iterate this).
FAULT_CLASSES = ("crash", *MESSAGE_FAULTS, "slow")


@dataclass(frozen=True)
class CrashSpec:
    """Kill worker ``rank`` after it has executed ``after_tasks`` tasks.

    ``hard`` crashes exit the process without reporting (a segfault
    stand-in); soft crashes raise, so the worker ships its error home
    first. Transient crashes
    (``every_attempt=False``, the default) fire only on attempt 0.
    """

    rank: int
    after_tasks: int
    hard: bool = False
    every_attempt: bool = False

    def applies(self, attempt: int) -> bool:
        return self.every_attempt or attempt == 0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of injected faults."""

    seed: int = 0
    attempt: int = 0
    crash: tuple[CrashSpec, ...] = ()
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    corrupt_header: float = 0.0
    delay: float = 0.0
    #: A delayed frame is released after this many later sends on the link,
    #: or by ``flush`` once its sender waits on its inbox or leaves its
    #: event loop, whichever is first: a delay reorders the stream.
    delay_messages: int = 3
    #: ``{rank: seconds}`` of extra sleep per executed task.
    slow: dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(
            self.crash
            or self.slow
            or any(getattr(self, f) > 0.0 for f in MESSAGE_FAULTS)
        )

    @property
    def message_faults_active(self) -> bool:
        return any(getattr(self, f) > 0.0 for f in MESSAGE_FAULTS)

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """The plan as seen by restart ``attempt``: message faults and
        transient crashes fire on attempt 0 only."""
        if attempt == 0:
            return self
        return replace(
            self,
            attempt=attempt,
            crash=tuple(c for c in self.crash if c.applies(attempt)),
            **dict.fromkeys(MESSAGE_FAULTS, 0.0),
        )

    def crash_for(self, rank: int) -> CrashSpec | None:
        for spec in self.crash:
            if spec.rank == rank:
                return spec
        return None

    def slow_for(self, rank: int) -> float:
        return float(self.slow.get(rank, 0.0))

    # ------------------------------------------------------------------
    @classmethod
    def scenario(
        cls,
        name: str,
        seed: int = 0,
        rate: float = 0.1,
        rank: int = 1,
        after_tasks: int = 3,
        slow_s: float = 0.002,
    ) -> "FaultPlan":
        """One named single-fault scenario (what the recovery tests sweep).

        ``name`` is one of :data:`FAULT_CLASSES` plus ``"crash-hard"``,
        ``"crash-persistent"`` and ``"none"``.
        """
        if name == "none":
            return cls(seed=seed)
        if name == "crash":
            return cls(seed=seed, crash=(CrashSpec(rank, after_tasks),))
        if name == "crash-hard":
            return cls(
                seed=seed, crash=(CrashSpec(rank, after_tasks, hard=True),)
            )
        if name == "crash-persistent":
            return cls(
                seed=seed,
                crash=(CrashSpec(rank, after_tasks, every_attempt=True),),
            )
        if name == "slow":
            return cls(seed=seed, slow={rank: slow_s})
        if name in MESSAGE_FAULTS:
            return cls(seed=seed, **{name: rate})
        raise KeyError(
            f"unknown fault scenario {name!r}; known: "
            f"{', '.join(FAULT_CLASSES)}, crash-hard, crash-persistent, none"
        )


class FaultInjector:
    """Per-worker fault state: wraps outgoing links, tallies injections."""

    def __init__(self, plan: FaultPlan, rank: int):
        self.plan = plan
        self.rank = rank
        self.injected = {f: 0 for f in FAULT_CLASSES}

    def wrap_links(self, links: dict[int, Link]) -> dict[int, Link]:
        """Replace each plain link with a fault-injecting one."""
        if not self.plan.message_faults_active:
            return links
        return {
            dst: FaultyLink(link.src, link.dst, link.queue, self)
            for dst, link in links.items()
        }


class FaultyLink(Link):
    """A :class:`Link` that applies the plan's message faults to data
    frames. Control frames pass through untouched."""

    __slots__ = ("injector", "_held", "_occurrence")

    def __init__(self, src: int, dst: int, queue, injector: FaultInjector):
        super().__init__(src, dst, queue)
        self.injector = injector
        #: Frames held back by delay faults: ``[frame, sends_remaining]``.
        self._held: list[list] = []
        self._occurrence: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _decisions(self, block: int) -> np.ndarray:
        occ = self._occurrence.get(block, 0)
        self._occurrence[block] = occ + 1
        plan = self.injector.plan
        rng = np.random.default_rng(
            [plan.seed, plan.attempt, self.src, self.dst, block & 0x7FFFFFFF,
             occ]
        )
        return rng.random(len(MESSAGE_FAULTS) + 1)

    @staticmethod
    def _flip_bit(frame: bytes, offset: int, bit: int) -> bytes:
        buf = bytearray(frame)
        buf[offset] ^= 1 << bit
        return bytes(buf)

    def send(self, frame: bytes, nbytes: int | None = None) -> None:
        if wire.frame_kind(frame) not in wire.DATA_KINDS:
            super().send(frame, nbytes)
            return
        plan = self.injector.plan
        block = wire.frame_block(frame)
        u = self._decisions(block)
        duplicate = u[4] < plan.duplicate
        if u[0] < plan.drop:
            # The frame left the NIC (counted) but the fabric ate it.
            self.injector.injected["drop"] += 1
            self._count(frame, nbytes)
            self._tick_held()
            return
        if u[1] < plan.corrupt:
            if wire.frame_kind(frame) == wire.BLOCK_REF:
                # The descriptor carries no payload bytes — the logical
                # payload's integrity words are the block metadata (offset
                # + block CRC), so that is what "payload corruption" flips.
                # The frame CRC covers the region, so the receiver rejects
                # it exactly like an inline payload flip.
                self.injector.injected["corrupt"] += 1
                span = wire.REF_REGION_LEN
                offset = wire.REF_REGION_START + int(u[5] * span) % span
                frame = self._flip_bit(frame, offset, int(u[5] * 8) % 8)
            elif len(frame) > wire.HEADER_BYTES:
                self.injector.injected["corrupt"] += 1
                span = len(frame) - wire.HEADER_BYTES
                offset = wire.HEADER_BYTES + int(u[5] * span) % span
                frame = self._flip_bit(frame, offset, int(u[5] * 8) % 8)
        elif u[2] < plan.corrupt_header:
            self.injector.injected["corrupt_header"] += 1
            # Flip a bit inside the header prefix (fields 4..29).
            offset = 4 + int(u[5] * 25) % 25
            frame = self._flip_bit(frame, offset, int(u[5] * 8) % 8)
        if u[3] < plan.delay:
            self.injector.injected["delay"] += 1
            self._count(frame, nbytes)
            self._held.append([frame, max(1, plan.delay_messages)])
        else:
            super().send(frame, nbytes)
        if duplicate:
            # The fabric's copy: the sender sent (and counted) one.
            self.injector.injected["duplicate"] += 1
            self._put(frame)
        self._tick_held()

    def _tick_held(self) -> None:
        due = []
        for item in self._held:
            item[1] -= 1
            if item[1] <= 0:
                due.append(item)
        for item in due:
            self._held.remove(item)
            self.queue.put(item[0])

    def flush(self) -> None:
        """Deliver every delayed frame (called when the worker waits on its
        inbox and at loop end), then ship any coalesced batch."""
        for frame, _ in self._held:
            self.queue.put(frame)
        self._held.clear()
        self.flush_pending()
