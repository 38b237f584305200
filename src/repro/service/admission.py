"""Bounded admission queue: the service's pressure-relief valve.

Capacity is bounded, and a full queue has one rule: the submitter waits
for room, up to its ``timeout``, then gets a typed
:class:`~repro.service.jobs.AdmissionRejected` (``"queue_full"``) —
never a hang. ``timeout=0`` is the immediate refusal, ``None`` waits
for as long as it takes. The queue keeps no counters: the service counts
what it submits, and what is refused or expires, in
:class:`~repro.service.metrics.ServiceMetrics`.

Everything is a plain condition variable over a deque, so a seeded load
trace drains deterministically: same arrivals, same capacity → same
admit/reject decisions.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.config import check_number
from repro.service.jobs import AdmissionRejected, ServiceClosed


class JobQueue:
    """Bounded FIFO of pending jobs."""

    def __init__(self, capacity: int = 64):
        self.capacity = check_number("queue_capacity", capacity, int, 1)
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def put(self, item, timeout: float | None = None) -> None:
        """Admit ``item``, waiting up to ``timeout`` seconds for room.

        Raises :class:`AdmissionRejected` when the queue is still full at
        the end of the wait, :class:`ServiceClosed` after :meth:`close`.
        """
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                if self._closed:
                    raise ServiceClosed("service is shut down")
                if len(self._items) < self.capacity:
                    break
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise AdmissionRejected(
                            "queue_full",
                            f"admission queue full ({self.capacity} jobs "
                            f"pending) for {timeout:.3g}s",
                        )
                self._cond.wait(remaining)
            self._items.append(item)
            self._cond.notify_all()

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
