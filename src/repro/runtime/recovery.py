"""The recovery loop of the message-passing runtime.

A job has one script: every attempt runs on the configured crew width
with the owners its :class:`~repro.runtime.engine.PatternPlan` planned
once, and anything off that script — a raised error, a corrupt or
repeated frame, a dead process, a stall — aborts the attempt. The job
then re-runs from scratch, and the sequential factorization comes last.
So a successful attempt is always an ordinary run, and its factor is
bitwise the clean one at that width. :func:`run_job` is that idea
written once: it takes one factor job, on a
:class:`~repro.runtime.pool.WorkerPool` its caller owns, from the first
attempt to its result, for every pool owner — ``run_mp_fanout`` (one
attempt, no fallback), a ``SparseCholesky(backend="mp")`` instance and
the factorization service. Each round it runs the attempt and settles
with the pool (:func:`settle`, the one place a crew is replaced, by one
rule: a rank that merely raised stays, a broken crew is restarted at its
own width): a finished attempt ends the loop; a failed one has its
traces kept and a :class:`FailedAttempt` recorded, and runs again unless
its error is deterministic or the attempt budget is spent. Attempt ``k``
carries the fault plan's
:meth:`~repro.runtime.faults.FaultPlan.for_attempt`, and each is bounded
by the plan's ``config.timeout_s``. Then the finished attempt is
assembled, or the sequential factorization stands in. Every job leaves
with a :class:`FailureReport`, so a result can always say whether its factor
came from a clean run, a recovered restart or the sequential fallback.
Failed attempts, restarts, fallbacks and recoveries are logged here.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.numeric.blockfact import BlockCholesky
from repro.runtime.engine import (
    MPRuntimeResult, PatternPlan, job_result,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pool import WorkerPool
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


def run_job(pool: WorkerPool, plan: PatternPlan, A, attempts: int, seqs, *,
            rhs=None, fault_plan: FaultPlan | None = None,
            label: str | None = None,
            fallback_sequential=True) -> MPRuntimeResult:
    """Factor ``A`` (permuted csc) on ``pool``, started first, in up to
    ``attempts`` parallel attempts over ``plan``'s job, numbered from
    ``seqs``; attempt ``k`` carries ``fault_plan.for_attempt(k)`` (``rhs``
    appends the distributed solve); after each one, :func:`settle`
    replaces the crew if the attempt broke it. ``label`` names the job in
    the log (default: the pattern id).

    Returns the finished attempt's result or, when none finished, the
    sequential fallback's (no ``solution``; what it raises — a
    ``LinAlgError`` for a matrix that is not positive definite — is the
    job's canonical error). With ``fallback_sequential`` off the last
    attempt's typed error is raised, carrying the job's
    :class:`FailureReport` as ``failure_report`` like the result; a
    gather that fails its checks raises the plain
    :class:`~repro.runtime.engine.FanoutError` of
    :func:`~repro.runtime.engine.outcome_result`.
    """
    label = label or plan.pattern_id
    report = FailureReport(OUTCOME_DEGRADED)
    traces: list[RunTrace] = []
    job = out = None
    epoch = time.perf_counter()
    pool.start()
    launch_s = time.perf_counter() - epoch
    width = pool.nprocs
    for attempt in range(attempts):
        job = plan.job(
            pool, A, next(seqs), rhs=rhs,
            fault_plan=fault_plan and fault_plan.for_attempt(attempt),
        )
        t0 = time.perf_counter()
        out = pool.run(job, plan.config.timeout_s)
        out.attempt = attempt
        wall_s = time.perf_counter() - t0
        retry = False
        if out.ok:
            report.outcome = OUTCOME_RECOVERED if attempt else OUTCOME_CLEAN
            if attempt:
                log.info("job %s recovered on attempt %d (P=%d)",
                         label, attempt, width)
        else:
            if any(res.trace is not None for res in out.results.values()):
                traces.append(RunTrace.from_workers(
                    {r: res.trace for r, res in out.results.items()},
                    meta={"nprocs": width, "attempt": attempt, "failed": True},
                    attempt=attempt,
                ))
            report.attempts.append(FailedAttempt(
                attempt, width, list(out.failed_ranks),
                out.error or "aborted", wall_s,
            ))
            log.warning("job %s: %s", label, report.attempts[-1])
            retry = not any(
                out.results[r].metrics.error_type in NOT_RETRYABLE
                for r in out.failed_ranks if r in out.results
            )
        settle(pool)
        if not (retry and attempt + 1 < attempts):
            break
    report.restarts = len(report.attempts)
    report.wall_s = time.perf_counter() - epoch
    if report.ok or not fallback_sequential:
        res = job_result(plan, job, out, launch_s, report)
        report.faults_injected = res.metrics.faults_injected_total
    else:
        log.warning("job %s: sequential fallback after %d failed attempt(s)",
                    label, report.restarts)
        t0 = time.perf_counter()
        # Always correct, and bitwise the factor of any 1 x P crew (to
        # rounding on other grids).
        factor = BlockCholesky(plan.structure, A).factor()
        report.wall_s = time.perf_counter() - epoch
        res = MPRuntimeResult(
            factor,
            RuntimeMetrics(1, time.perf_counter() - t0, [], SEQUENTIAL_MAPPING),
            np.zeros(plan.tg.nblocks, dtype=np.int64), SEQUENTIAL_MAPPING,
            {"fallback": True}, report,
        )
    # Failed attempts' events first, so the trace tells the whole
    # multi-attempt story.
    res.trace = RunTrace.concat([*traces, res.trace])
    return res
