"""Job descriptions, results, handles, and the service's typed errors."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.matrices.spd import symmetric_csc


# ----------------------------------------------------------------------
# Typed errors — clients branch on these, never on message text.
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base class for every service-layer failure."""

    #: Stable wire tag (socket protocol maps errors back to types by it).
    kind = "error"


class AdmissionRejected(ServiceError):
    """The admission queue stayed full for the submitter's whole wait.
    The job never entered the queue: nothing ran."""

    kind = "rejected"

    def __init__(self, reason: str, message: str | None = None):
        super().__init__(message or f"job rejected: {reason}")
        self.reason = reason


class ServiceClosed(ServiceError):
    """Submitted to (or waited on) a service that has shut down."""

    kind = "closed"


class UnknownPatternError(ServiceError):
    """A values-only job named a pattern id the cache does not hold."""

    kind = "unknown_pattern"


class ServiceUnavailable(ServiceError):
    """The client could not reach the service (connect/request failed or
    timed out). The client's next call reconnects. A resubmission re-runs
    the job — whether or not the lost one ran — and its answer is bitwise
    the same."""

    kind = "unavailable"


class JobFailed(ServiceError):
    """The factorization itself failed (worker error, pool breakage)."""

    kind = "failed"

    def __init__(self, job_id: str, detail: str):
        super().__init__(f"job {job_id!r} failed: {detail}")
        self.job_id = job_id
        self.detail = detail


class ValidationFailed(JobFailed):
    """The parallel factor did not match the sequential baseline (only
    raised when the service runs with ``validate=True``)."""

    kind = "validation"


# ----------------------------------------------------------------------
# Jobs and results
# ----------------------------------------------------------------------
@dataclass
class FactorJob:
    """One client request: a full matrix, or a pattern handle + values.

    Exactly one of ``A`` / (``pattern_id`` + ``values``) is given. A full
    matrix is hashed on its sparsity structure — a cache hit still runs
    the warm path; ``pattern_id`` + ``values`` skips even the hash and the
    permutation-from-scratch, shipping the values straight through the
    cached ordering.
    """

    job_id: str
    A: sparse.csc_matrix | None = None
    pattern_id: str | None = None
    values: np.ndarray | None = None
    #: Faults of every parallel attempt, via ``for_attempt`` (chaos testing).
    fault_plan: object | None = None
    submitted_at: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.A is None:
            if self.pattern_id is None or self.values is None:
                raise ValueError(
                    "FactorJob needs a matrix A, or pattern_id + values"
                )
            self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        else:
            if self.values is not None:
                raise ValueError("give either A or values, not both")
            self.A = symmetric_csc(self.A)  # a lone triangle is mirrored


@dataclass
class SolveJob:
    """One solve request as :meth:`FactorService.solve` queues it, already
    validated on the calling thread: the pattern's cache entry and the
    permuted right-hand-side panel (``vector``: the client's ``b`` was
    1-d). ``fault_plan`` rides the warm solve's workers (chaos testing)."""

    job_id: str
    entry: object
    panel: np.ndarray
    vector: bool = False
    fault_plan: object | None = None
    submitted_at: float = field(default_factory=time.monotonic)


@dataclass
class JobResult:
    """What the service hands back for one completed job."""

    job_id: str
    #: Cache key for the job's sparsity pattern — submit later jobs as
    #: ``(pattern_id, values)`` to take the fastest warm path.
    pattern_id: str
    #: ``"hit"`` (warm: symbolic/plan/arena reused) or ``"miss"`` (cold).
    cache: str
    #: Composed fill-reducing permutation used for this pattern.
    perm: np.ndarray
    #: The factor: an assembled :class:`~repro.numeric.BlockCholesky`.
    factor: object
    #: Per-worker :class:`~repro.runtime.metrics.RuntimeMetrics`.
    metrics: object | None = None
    #: Merged :class:`~repro.runtime.trace.RunTrace` when tracing is on.
    trace: object | None = None
    #: The service-side :class:`~repro.service.metrics.JobRecord`.
    record: object | None = None

    @cached_property
    def L(self) -> sparse.csc_matrix:
        """The factor as CSC, permuted order (``L[perm][:, perm]`` space),
        assembled on first read."""
        return self.factor.to_csc()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` with this factor (locally, in-process; for
        the distributed solve on the service's resident factor use
        :meth:`FactorService.solve <repro.service.FactorService.solve>`)."""
        from repro.numeric import solve_with_factor

        return solve_with_factor(self.factor, b, self.perm)


@dataclass
class SolveResult:
    """What the service hands back for one completed solve request."""

    job_id: str
    pattern_id: str
    #: Solution, client row order, same shape as the request's ``b``.
    x: np.ndarray
    #: ``"clean"`` (warm distributed solve on the pool's resident
    #: factor — only RHS values travelled) or ``"degraded_sequential"``
    #: (sequential block fallback — bitwise-identical result). Tags from
    #: :mod:`repro.runtime.recovery`.
    outcome: str = "clean"
    #: Per-worker :class:`~repro.runtime.metrics.RuntimeMetrics` of the
    #: warm distributed solve (None on the sequential fallback).
    metrics: object | None = None
    #: Merged :class:`~repro.runtime.trace.RunTrace` when tracing is on.
    trace: object | None = None
    #: The service-side :class:`~repro.service.metrics.JobRecord`.
    record: object | None = None


class JobHandle:
    """Future for a submitted job. ``result()`` blocks; typed errors
    raised at submit time surface from :meth:`result` as well."""

    def __init__(self, job: FactorJob | SolveJob):
        self.job = job
        self.job_id = job.job_id
        self._event = threading.Event()
        self._result: JobResult | SolveResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, result) -> None:
        self._result = result
        self._event.set()

    def set_exception(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def result(self, timeout: float | None = None):
        """Block for the result. ``timeout`` (seconds, None = no bound)
        is the one bound on the wait: past it :class:`TimeoutError`, while
        the job itself runs on and answers a later ``result()``."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id!r} not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result
