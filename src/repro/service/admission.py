"""Bounded admission queue with reject / block / shed policies.

The queue is the service's pressure-relief valve. Capacity is bounded;
what happens when it is full is the admission *policy*:

* ``"reject"`` — refuse new work immediately with a typed
  :class:`~repro.service.jobs.AdmissionRejected` (never a hang). The
  right default for latency-sensitive clients that can retry elsewhere.
* ``"block"`` — backpressure: the submitting thread waits (bounded by
  its ``timeout``) for space; on timeout, a typed rejection. The right
  default for closed-loop clients.
* ``"shed"`` — admit the new job and shed the *oldest* queued one (its
  handle fails with ``AdmissionRejected("shed")``). Keeps the queue
  biased toward fresh work under sustained overload.

Everything is a plain condition variable over a deque, so a seeded load
trace drains deterministically: same arrivals, same capacity, same
policy → same admit/reject/shed decisions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.service.jobs import AdmissionRejected, ServiceClosed

POLICIES = ("reject", "block", "shed")


@dataclass
class QueueStats:
    """Admission counters (monotonic over the queue's life)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    timed_out: int = 0
    #: Jobs whose per-job deadline passed while still queued (the
    #: dispatcher fails them with ``DeadlineExceeded`` before dispatch).
    expired: int = 0
    high_water: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class JobQueue:
    """Bounded FIFO of pending jobs with an admission policy."""

    def __init__(self, capacity: int = 64, policy: str = "block"):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if policy not in POLICIES:
            raise KeyError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.stats = QueueStats()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def put(self, item, timeout: float | None = None):
        """Admit ``item`` under the configured policy.

        Returns the item shed to make room (``"shed"`` policy only;
        ``None`` otherwise). Raises :class:`AdmissionRejected` when the
        policy refuses the job, :class:`ServiceClosed` after
        :meth:`close`.
        """
        with self._cond:
            self.stats.submitted += 1
            if self._closed:
                raise ServiceClosed("service is shut down")
            shed = None
            if len(self._items) >= self.capacity:
                if self.policy == "reject":
                    self.stats.rejected += 1
                    raise AdmissionRejected(
                        "queue_full",
                        f"admission queue full "
                        f"({self.capacity} jobs pending)",
                    )
                if self.policy == "shed":
                    shed = self._items.popleft()
                    self.stats.shed += 1
                else:  # block: bounded backpressure
                    deadline = (
                        None if timeout is None
                        else time.monotonic() + timeout
                    )
                    while len(self._items) >= self.capacity:
                        if self._closed:
                            raise ServiceClosed("service is shut down")
                        remaining = None
                        if deadline is not None:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                self.stats.rejected += 1
                                self.stats.timed_out += 1
                                raise AdmissionRejected(
                                    "backpressure_timeout",
                                    f"queue full for {timeout:.3g}s",
                                )
                        self._cond.wait(remaining)
            self._items.append(item)
            self.stats.admitted += 1
            self.stats.high_water = max(
                self.stats.high_water, len(self._items)
            )
            self._cond.notify_all()
            return shed

    # ------------------------------------------------------------------
    def get(self):
        """Take the oldest job, blocking until there is one; ``None``
        once the queue is closed and empty."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if not self._items:
                return None
            self._cond.notify_all()
            return self._items.popleft()

    def note_expired(self) -> None:
        """Count one job that expired in the queue (dispatcher calls)."""
        with self._cond:
            self.stats.expired += 1

    def drain(self) -> list:
        """Remove and return every pending item (used at shutdown)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return items

    def close(self) -> None:
        """Refuse new work and wake every waiter. Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
