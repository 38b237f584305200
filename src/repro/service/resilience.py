"""Resilience primitives: circuit breaker and retry backoff policy.

Two small, independently testable pieces the service layer composes:

* :class:`CircuitBreaker` — guards the worker pool. Closed while the
  pool is healthy; ``threshold`` consecutive pool-level failures open it,
  after which the dispatcher routes jobs to the sequential fallback
  (degraded but correct — the fallback is bitwise-identical to the
  parallel path) instead of hammering a crew that keeps dying. After
  ``cooldown_s`` the breaker goes half-open: exactly one job probes the
  pool, and its outcome closes the breaker again or re-opens it.
* :class:`RetryPolicy` — client-side exponential backoff with seeded
  jitter for transient typed errors (``retryable`` ones) and broken
  connections. Seeding keeps a client's retry schedule deterministic.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.config import check_number

__all__ = ["CircuitBreaker", "RetryPolicy"]


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


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter: ``delay(k)`` for retry ``k``.

    ``retries`` is the number of *re*-attempts after the first try.
    Jitter subtracts up to ``jitter`` fraction of the delay (seeded, so
    two policies with the same seed back off identically — chaos runs
    stay reproducible). ``retries=0`` disables retrying.
    """

    retries: int = 3
    base_s: float = 0.05
    cap_s: float = 2.0
    jitter: float = 0.5
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based)."""
        d = min(self.cap_s, self.base_s * (2.0 ** attempt))
        return d * (1.0 - self.jitter * self._rng.random())

    def should_retry(self, attempt: int, exc: BaseException) -> bool:
        """Retry ``attempt`` (0-based) after ``exc``?"""
        if attempt >= self.retries:
            return False
        return bool(getattr(exc, "retryable", False))
