"""Factorization-as-a-service: a long-lived solver over the mp runtime.

The paper's motivating workload is *repeated* numeric factorization of a
fixed sparsity pattern inside interior-point LP loops, yet a one-shot
``run_mp_fanout`` pays full job setup — owner planning, worker spawn,
arena creation — for every matrix. A ``SparseCholesky(backend="mp")``
instance keeps that warm for its one pattern; this package keeps it, and
the symbolic analysis, warm for many:

* :class:`FactorService` — the driver. Owns a persistent
  :class:`~repro.runtime.pool.WorkerPool`, a pattern cache
  (:class:`~repro.service.cache.PatternCache`) keyed on sparsity
  structure, and a bounded admission queue
  (:class:`~repro.service.admission.JobQueue`). One dispatcher thread
  takes one queued job at a time — a factorization or a warm solve —
  and runs it on the resident crew.
* ``python -m repro serve`` — run the service as a TCP server.
* :class:`ServiceClient` — its TCP client; submit a matrix, or a pattern
  handle plus a new values array, get the factor back. An in-process
  caller calls :class:`FactorService` directly.

Repeated-pattern traffic runs as pure numeric re-factorization: warm
jobs skip symbolic analysis, owner planning, and worker spawn entirely,
shipping only a float64 values array per worker. Every result can be
validated against the sequential :class:`~repro.numeric.BlockCholesky`
baseline (``validate=True``; bitwise on a ``1 x P`` grid).

The service is self-healing: dead or stalled workers are detected
mid-job, the pool restarts on the survivors, and the job in flight is
re-run (bounded attempts) before falling back to the always-correct
sequential path — outcomes are tagged per job. Per-job deadlines,
idempotent job-id dedup, a :class:`~repro.service.resilience.CircuitBreaker`
guarding the pool, and client-side :class:`~repro.service.resilience.RetryPolicy`
backoff round out the failure surface; every failure is a typed
:class:`ServiceError` subclass, never a hang. ``python -m repro
chaos-service`` drives the whole matrix deterministically.
"""

from repro.service.admission import JobQueue, QueueStats
from repro.service.cache import PatternCache, PatternEntry, pattern_digest
from repro.service.client import ClientResult, ServiceClient
from repro.service.jobs import (
    AdmissionRejected,
    DeadlineExceeded,
    FactorJob,
    JobFailed,
    JobHandle,
    JobResult,
    ServiceClosed,
    ServiceError,
    ServiceUnavailable,
    SolveResult,
    UnknownPatternError,
    ValidationFailed,
)
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.service.metrics import JobRecord, ServiceMetrics
from repro.service.server import ServiceServer
from repro.service.service import FactorService

__all__ = [
    "AdmissionRejected",
    "CircuitBreaker",
    "ClientResult",
    "DeadlineExceeded",
    "FactorJob",
    "FactorService",
    "JobFailed",
    "JobHandle",
    "JobQueue",
    "JobRecord",
    "JobResult",
    "PatternCache",
    "PatternEntry",
    "QueueStats",
    "RetryPolicy",
    "ServiceClient",
    "ServiceClosed",
    "ServiceError",
    "ServiceMetrics",
    "ServiceServer",
    "ServiceUnavailable",
    "SolveResult",
    "UnknownPatternError",
    "ValidationFailed",
    "pattern_digest",
]
