"""The service's circuit breaker.

:class:`CircuitBreaker` guards the worker pool. Closed while the pool is
healthy; ``threshold`` consecutive pool-level failures open it, after
which the dispatcher routes jobs to the sequential fallback (degraded but
correct — the fallback is bitwise-identical to the parallel path) instead
of hammering a crew that keeps dying. After ``cooldown_s`` the breaker
goes half-open: exactly one job probes the pool, and its outcome closes
the breaker again or re-opens it.

A caller that lost an answer resubmits: every job is deterministic, so
the service re-runs it and the answer is bitwise the same.
"""

from __future__ import annotations

import threading
import time

from repro.config import check_number

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """A classic three-state circuit breaker (closed/open/half-open).

    ``threshold <= 0`` disables the breaker entirely (always closed).
    Thread-safe: the dispatcher records outcomes while health probes read
    the state.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        self.threshold = check_number("breaker_threshold", threshold, int)
        self.cooldown_s = check_number("breaker_cooldown_s", cooldown_s,
                                       float, 0)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0  # times the breaker opened (telemetry)

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the caller use the pool for the next job?

        While open, returns False until ``cooldown_s`` elapsed, then
        transitions to half-open and returns True exactly once — that
        call is the probe; its recorded outcome decides what happens
        next. (Single-dispatcher discipline: one probe in flight.)
        """
        if self.threshold <= 0:
            return True
        with self._lock:
            if self._state == self.OPEN and not self._cooling():
                self._state = self.HALF_OPEN
                return True
            return self._state == self.CLOSED

    def _cooling(self) -> bool:
        return self._clock() - self._opened_at < self.cooldown_s

    @property
    def refusing(self) -> bool:
        """Would :meth:`allow` say no right now? No transition, so any
        thread may ask (a half-open breaker has its probe in flight)."""
        with self._lock:
            return self._state == self.HALF_OPEN or (
                self._state == self.OPEN and self._cooling()
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failures >= self.threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips += 1

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "trips": self.trips,
            }

