"""Ready-task scheduling inside one worker: data-driven FIFO, §2.3's rule —
a processor runs block operations in the order their operands arrive.
Other ready orders are studied in the simulator only; ``docs/PERFORMANCE.md``
records the P=2 spot check in which none of them beat FIFO here.
"""

from __future__ import annotations

from collections import deque


class ReadyScheduler:
    """FIFO queue of ready task ids.

    Pushes are idempotent: a task id already enqueued (ever) is silently
    ignored, so a redundant wakeup cannot execute a task twice.
    """

    def __init__(self):
        self._fifo: deque[int] = deque()
        self._seen: set[int] = set()

    def push(self, tid: int) -> bool:
        """Enqueue ``tid``; returns False if it was already pushed once."""
        if tid in self._seen:
            return False
        self._seen.add(tid)
        self._fifo.append(tid)
        return True

    def pop(self) -> int:
        return self._fifo.popleft()

    def steal(self, eligible) -> int | None:
        """Remove and return the task a thief should get, or None.

        ``eligible`` is a predicate over ready items (the worker grants
        only one-member panel updates). The steal end is the FIFO tail,
        the opposite of :meth:`pop`: the victim keeps the work it would
        have run next, the thief takes what would have waited longest.
        The task stays in ``_seen``, so a redundant wakeup cannot
        re-enqueue it behind the thief's back.
        """
        for i in range(len(self._fifo) - 1, -1, -1):
            tid = self._fifo[i]
            if eligible(tid):
                del self._fifo[i]
                return tid
        return None

    def __len__(self) -> int:
        return len(self._fifo)
