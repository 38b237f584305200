"""The recovery loop of the message-passing runtime.

A job has one script: every attempt runs on the configured crew width
with the owners its :class:`~repro.runtime.engine.PatternPlan` planned
once, and anything off that script — a raised error, a corrupt or
repeated frame, a dead process, a stall — aborts the attempt. The job
then re-runs from scratch, and the sequential factorization comes last.
So a successful attempt is always an ordinary run, and its factor is
bitwise the clean one at that width. :func:`recover` is that idea written
once, over a :class:`~repro.runtime.pool.WorkerPool` the caller owns and
one :class:`RecoveryJob` — :func:`run_job`'s or a factor job of the
factorization service. Each round it runs the attempt and settles with
the pool (:func:`settle`, the one place a crew is replaced, by one rule:
a rank that merely raised stays, a broken crew is restarted at its own
width): a finished or expired job leaves; a failed one has its traces
kept and a :class:`FailedAttempt` recorded, and runs again unless its
error is deterministic, the attempt budget is spent or the caller stops
the loop — then it leaves for :func:`last_resort`. Every caller builds
attempt ``k``'s job one way: the fault plan's
:meth:`~repro.runtime.faults.FaultPlan.for_attempt` plus the deadline.
Every job leaves with a :class:`FailureReport`, so a result can always
say whether its factor came from a clean run, a recovered restart or the
sequential fallback. :func:`run_job` is one factorization through the
loop, on a ``SparseCholesky`` instance's crew (with the fallback) or on
``run_mp_fanout``'s one-call crew (one attempt, no fallback).
Failed attempts, restarts, fallbacks and recoveries are logged here.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.numeric.blockfact import BlockCholesky
from repro.runtime.engine import MPRuntimeResult, PatternPlan, job_result
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pool import JobOutcome, PoolJob, WorkerPool
from repro.runtime.trace import RunTrace

log = logging.getLogger(__name__)

#: FailureReport.outcome values; the service tags each JobRecord with them.
OUTCOME_CLEAN = "clean"
OUTCOME_RECOVERED = "recovered"
OUTCOME_DEGRADED = "degraded_sequential"

#: Mapping name reported by sequential-fallback results.
SEQUENTIAL_MAPPING = "sequential-fallback"

#: Worker exception classes (``WorkerMetrics.error_type``) any crew would
#: hit again on the same values: never retried in parallel.
NOT_RETRYABLE = frozenset({"LinAlgError", "NotPositiveDefiniteError"})


@dataclass
class FailedAttempt:
    """One failed parallel attempt, as recorded by the restart loop."""

    attempt: int
    nprocs: int
    failed_ranks: list[int]
    error: str
    wall_s: float

    def __str__(self) -> str:
        last = self.error.strip().splitlines()[-1] if self.error else "?"
        return (
            f"attempt {self.attempt} (P={self.nprocs}) failed "
            f"[ranks {self.failed_ranks}] after {self.wall_s * 1e3:.0f} ms: "
            f"{last}"
        )


@dataclass
class FailureReport:
    """Structured account of how a factorization survived its faults."""

    outcome: str = OUTCOME_CLEAN
    attempts: list[FailedAttempt] = field(default_factory=list)
    restarts: int = 0
    faults_injected: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome in (OUTCOME_CLEAN, OUTCOME_RECOVERED)

    @property
    def degraded(self) -> bool:
        return self.outcome == OUTCOME_DEGRADED

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        lines = [f"outcome={self.outcome} restarts={self.restarts}"]
        lines += [f"  {a}" for a in self.attempts]
        if self.faults_injected:
            lines.append(f"  faults injected: {self.faults_injected}")
        return "\n".join(lines)


class RecoveryJob:
    """One factorization on its way through :func:`recover`: the permuted
    csc matrix ``A``, a ``label`` for the log and the pattern's
    :class:`~repro.runtime.engine.PatternPlan` — plus what the loop keeps:
    the ``traces`` of failed attempts, the last attempt's
    :class:`~repro.runtime.pool.PoolJob` (``shipped``) and ``outcome``, and
    the ``report``, which says degraded — owed the last resort — until an
    attempt finishes."""

    def __init__(self, plan, A, label: str = "one-shot"):
        self.plan, self.A, self.label = plan, A, label
        self.report = FailureReport(OUTCOME_DEGRADED)
        self.traces: list[RunTrace] = []
        self.shipped: PoolJob | None = None
        self.outcome: JobOutcome | None = None
        self._entered = time.perf_counter()

    def _leave(self, outcome: str = OUTCOME_DEGRADED):
        rep = self.report
        rep.outcome = outcome
        rep.restarts = len(rep.attempts)
        rep.wall_s = time.perf_counter() - self._entered
        return self


def settle(pool: WorkerPool) -> bool:
    """Settle with the pool after a job; returns whether the crew was
    replaced. It is, at its own width, exactly when the job broke it
    (``last_error``: a process died or the job timed out). A rank that
    merely raised poisoned only its job and stays."""
    if pool.last_error is None:
        return False
    pool.restart()
    log.warning("restarted the pool (%d workers, generation %d): %s",
                pool.nprocs, pool.generation, pool.last_error)
    return True


def recover(pool: WorkerPool, job: RecoveryJob, make_spec, attempts: int,
            timeout_s: float, settled=None) -> RecoveryJob:
    """Run ``job`` on ``pool`` until it finishes or is out of its
    ``attempts`` parallel attempts, and return it.

    ``make_spec(attempt)`` returns the attempt's
    :class:`~repro.runtime.pool.PoolJob`, kept as ``job.shipped``, over
    the owners ``job.plan`` planned once for ``pool.nprocs`` workers.
    ``timeout_s`` bounds one attempt. ``settled(restarted)``, if given,
    hears after each attempt whether the crew had to be replaced and
    answers whether the pool may run another (a circuit breaker's seat).
    A job that leaves with neither ``report.ok`` nor an expired
    ``outcome`` is owed the last resort.
    """
    width = pool.nprocs
    for attempt in range(attempts):
        job.shipped = make_spec(attempt)
        t0 = time.perf_counter()
        out = job.outcome = pool.run(job.shipped, timeout_s)
        out.attempt = attempt
        wall_s = time.perf_counter() - t0
        retry = False
        if out.ok:
            outcome = OUTCOME_RECOVERED if attempt else OUTCOME_CLEAN
            if attempt:
                log.info("job %s recovered on attempt %d (P=%d)",
                         job.label, attempt, width)
        else:
            outcome = OUTCOME_DEGRADED
            if any(res.trace is not None for res in out.results.values()):
                job.traces.append(RunTrace.from_workers(
                    {r: res.trace for r, res in out.results.items()},
                    meta={"nprocs": width, "attempt": attempt, "failed": True},
                    attempt=attempt,
                ))
            job.report.attempts.append(FailedAttempt(
                attempt, width, list(out.failed_ranks),
                out.error or "aborted", wall_s,
            ))
            log.warning("job %s: %s", job.label, job.report.attempts[-1])
            retry = not out.expired and not any(
                out.results[r].metrics.error_type in NOT_RETRYABLE
                for r in out.failed_ranks if r in out.results
            )
        restarted = settle(pool)
        go = settled is None or settled(restarted)
        if not (retry and attempt + 1 < attempts and go):
            break
    return job._leave(outcome)


def last_resort(job: RecoveryJob) -> tuple[BlockCholesky, RuntimeMetrics]:
    """The sequential factorization that stands in for a job no parallel
    attempt finished: always correct, and bitwise the factor of any
    ``1 x P`` crew (to rounding on other grids). What it raises
    (``LinAlgError`` for a matrix that is not positive definite) is the
    job's canonical error."""
    log.warning("job %s: sequential fallback after %d failed attempt(s)",
                job.label, len(job.report.attempts))
    t0 = time.perf_counter()
    factor = BlockCholesky(job.plan.structure, job.A).factor()
    job._leave()
    wall_s = time.perf_counter() - t0
    return factor, RuntimeMetrics(1, wall_s, [], SEQUENTIAL_MAPPING)


def run_job(pool: WorkerPool, plan: PatternPlan, A, attempts: int, seqs, *,
            rhs=None, fault_plan: FaultPlan | None = None,
            fallback_sequential=True) -> MPRuntimeResult:
    """Factor ``A`` (permuted csc) on ``pool``, started first:
    :func:`recover` over ``plan``'s job for ``attempts`` parallel attempts
    numbered from ``seqs``, each with ``fault_plan``'s faults for it
    (``rhs`` appends the distributed solve).
    Returns the last attempt's result, or the :func:`last_resort`'s (no
    ``solution``; what it raises propagates), or — ``fallback_sequential``
    off — raises the attempt's typed error. Either carries the job's
    ``FailureReport``."""
    job = RecoveryJob(plan, A, plan.pattern_id)
    report = job.report
    epoch = time.perf_counter()
    pool.start()
    launch_s = time.perf_counter() - epoch

    def spec(attempt):
        return plan.job(
            pool, A, next(seqs), rhs=rhs,
            fault_plan=fault_plan and fault_plan.for_attempt(attempt),
        )

    recover(pool, job, spec, attempts, plan.config.timeout_s)
    if report.ok or not fallback_sequential:
        res = job_result(plan, job.shipped, job.outcome, launch_s, report)
        report.faults_injected = res.metrics.faults_injected_total
    else:
        factor, metrics = last_resort(job)
        res = MPRuntimeResult(
            factor, metrics, np.zeros(plan.tg.nblocks, dtype=np.int64),
            SEQUENTIAL_MAPPING, {"fallback": True}, report,
        )
    # Failed attempts' events first, so the trace tells the whole
    # multi-attempt story.
    res.trace = RunTrace.concat([*job.traces, res.trace])
    return res
