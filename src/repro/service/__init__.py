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
mid-job, the pool restarts at its configured width, and the job in
flight is re-run from scratch (bounded attempts) before falling back to
the always-correct sequential path — outcomes are tagged per job. That
loop, :func:`~repro.runtime.recovery.run_job`, is the one failure policy:
each job gets its own ``max_restarts + 1`` attempts. Every failure is a
typed :class:`ServiceError` subclass, and a caller's ``timeout`` bounds
its wait. A job's faults are injected with ``submit(fault_plan=)``.

One submit, one run: the service names every job it admits, and each
``submit`` or ``solve`` runs its job once. Every job is deterministic, so
a resubmission (say, after a broken connection) re-runs the job and the
answer is bitwise the same.
"""

from repro.service.admission import JobQueue
from repro.service.cache import PatternCache, PatternEntry, pattern_digest
from repro.service.client import ClientResult, ServiceClient
from repro.service.jobs import (
    AdmissionRejected,
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
from repro.service.metrics import JobRecord, ServiceMetrics
from repro.service.server import ServiceServer
from repro.service.service import FactorService

__all__ = [
    "AdmissionRejected",
    "ClientResult",
    "FactorJob",
    "FactorService",
    "JobFailed",
    "JobHandle",
    "JobQueue",
    "JobRecord",
    "JobResult",
    "PatternCache",
    "PatternEntry",
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
