"""The recovery loop of the message-passing runtime.

The factor is bitwise independent of the block map and of P, so one idea
covers every failure: re-plan the map on the surviving workers, run
again, and fall back to the sequential factorization last. :func:`recover`
is that idea written once, over a :class:`~repro.runtime.pool.WorkerPool`
the caller owns and a list of :class:`RecoveryJob` — one for
:func:`run_with_recovery`, a batch for the factorization service. Each
round it re-plans owners for the crew, runs the attempt, settles with the
pool (:func:`settle`, the one place a crew is healed), and sorts the
jobs: a finished or expired one leaves; a failed one has its checkpoint
frames and traces harvested and a :class:`FailedAttempt` recorded, and
runs again unless its error is deterministic, the attempt budget is spent
or the caller stops the loop — then it leaves for :func:`last_resort`.
Every job leaves with a :class:`FailureReport`, so a result can always
say whether its factor came from a clean run, a recovered restart or the
sequential fallback. What the callers differ in is a
:class:`RecoveryPolicy`; how a job becomes a
:class:`~repro.runtime.pool.PoolJob` stays with their spec builders.
Failed attempts, heals, fallbacks and recoveries are logged here.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.config import RunConfig
from repro.fanout.tasks import TaskGraph
from repro.numeric.blockfact import BlockCholesky
from repro.runtime import wire
from repro.runtime.engine import (
    MPRuntimeResult,
    fanout_error,
    fanout_result,
    one_shot_crew,
    one_shot_job,
    plan_owners,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pool import JobOutcome, WorkerPool
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
NOT_RETRYABLE = frozenset({"LinAlgError"})


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the callers of :func:`recover` differ in."""

    #: Parallel attempts a job gets before the last resort.
    attempts: int
    #: True: every rank in a retried job's ``failed_ranks`` is lost to the
    #: crew, a merely *raising* one too (a one-shot crew serves that job
    #: alone). False: only dead processes are (a resident crew).
    raising_rank_is_casualty: bool


@dataclass
class FailedAttempt:
    """One failed parallel attempt, as recorded by the restart loop."""

    attempt: int
    nprocs: int
    failed_ranks: list[int]
    error: str
    checkpoint_blocks: int
    wall_s: float

    def __str__(self) -> str:
        last = self.error.strip().splitlines()[-1] if self.error else "?"
        return (
            f"attempt {self.attempt} (P={self.nprocs}) failed "
            f"[ranks {self.failed_ranks}] after {self.wall_s * 1e3:.0f} ms, "
            f"salvaged {self.checkpoint_blocks} blocks: {last}"
        )


@dataclass
class FailureReport:
    """Structured account of how a factorization survived its faults."""

    outcome: str = OUTCOME_CLEAN
    attempts: list[FailedAttempt] = field(default_factory=list)
    restarts: int = 0
    final_nprocs: int = 0
    checkpoint_blocks_used: int = 0
    recovery_events: int = 0
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
        lines = [
            f"outcome={self.outcome} restarts={self.restarts} "
            f"final_P={self.final_nprocs} "
            f"checkpoint_blocks={self.checkpoint_blocks_used} "
            f"recovery_events={self.recovery_events}"
        ]
        lines += [f"  {a}" for a in self.attempts]
        if self.faults_injected:
            lines.append(f"  faults injected: {self.faults_injected}")
        return "\n".join(lines)


@dataclass
class OwnerPlan:
    """One pattern's block map, as :func:`replan` keeps it (the service
    passes its ``PatternEntry``, which has the same fields)."""

    structure: BlockStructure
    tg: TaskGraph
    config: RunConfig
    owners: np.ndarray | None = None
    mapping_name: str = ""
    planned_nprocs: int = 0


def replan(plan, width: int) -> None:
    """Plan ``plan.owners`` for a crew of ``width`` unless they already
    are (an arena's layout does not depend on the width)."""
    if plan.planned_nprocs != width:
        plan.owners, plan.mapping_name = plan_owners(
            plan.tg.workmodel, plan.tg, width,
            plan.config.mapping, plan.config.use_domains,
        )
        plan.planned_nprocs = width


class RecoveryJob:
    """One factorization on its way through :func:`recover`: the permuted
    csc matrix ``A`` under ``plan`` and a ``label`` for the log — and
    what the loop keeps: the ``report``, the ``checkpoint`` frames (by
    block) and ``traces`` salvaged from failed attempts, and the last
    attempt's ``spec``, ``outcome`` and, if it failed, typed ``failure``."""

    def __init__(self, plan, A, label: str = "one-shot"):
        self.plan, self.A, self.label = plan, A, label
        self.report = FailureReport()
        self.checkpoint: dict[int, bytes] = {}
        self.traces: list[RunTrace] = []
        self.spec = self.outcome = self.failure = None
        self._entered = time.perf_counter()

    @property
    def finished(self) -> bool:
        """A parallel attempt completed the job."""
        return self.outcome is not None and self.outcome.ok

    def _leave(self, width: int, outcome: str | None = None):
        rep = self.report
        rep.outcome = outcome or rep.outcome
        rep.restarts = len(rep.attempts)
        rep.final_nprocs = width
        rep.checkpoint_blocks_used = len(self.checkpoint)
        rep.wall_s = time.perf_counter() - self._entered
        return self


def _harvest_checkpoint(
    out: JobOutcome, tg: TaskGraph, checkpoint: dict[int, bytes]
) -> int:
    """Fold the completed-block frames a failed attempt shipped home into
    ``checkpoint`` (CRC-verified first; a block already held is kept) and
    return how many were new. Checkpoint frames carry their payload on
    every transport, so they outlive the attempt's arena slots."""
    before = len(checkpoint)
    for res in out.results.values():
        for frame in res.frames:
            try:
                b = wire.frame_block(frame)
                if b in checkpoint or not 0 <= b < tg.nblocks:
                    continue
                wire.unpack(frame)  # CRC + shape check; corrupt -> skip
            except wire.WireError:
                continue
            checkpoint[b] = frame
    return len(checkpoint) - before


def settle(pool: WorkerPool, policy: RecoveryPolicy, retried=()) -> bool:
    """Settle with the pool after a ``run_batch``: when the batch broke it
    (``last_error``), or cost it ranks under the policy (``retried``: the
    failed outcomes about to run again), replace the crew with a fresh one
    on the survivors. Returns whether it did."""
    lost = None  # heal()'s own count: the dead processes
    if policy.raising_rank_is_casualty and retried:
        lost = max(1, len({r for out in retried for r in out.failed_ranks}))
    elif pool.last_error is None:
        return False
    old = pool.nprocs
    pool.heal(lost)
    log.warning("healed the pool: %d -> %d workers (generation %d): %s",
                old, pool.nprocs, pool.generation,
                pool.last_error or "ranks failed")
    return True


def recover(pool: WorkerPool, jobs, make_specs, policy: RecoveryPolicy,
            timeout_s: float, settled=None):
    """Run ``jobs`` on ``pool`` until each is finished or out of parallel
    attempts; yields every :class:`RecoveryJob` once, as it leaves.

    ``make_specs(pending, attempt)`` returns the attempt's
    :class:`~repro.runtime.pool.PoolJob` per pending job, in order; owners
    are already planned for ``pool.nprocs``. ``timeout_s`` bounds one
    attempt. ``settled(healed)``, if given, hears after each attempt
    whether the crew had to be replaced and answers whether the pool may
    run another (a circuit breaker's seat). A job that leaves neither
    ``finished`` nor with an expired ``outcome`` is owed the last resort.
    """
    pending, attempt, go = list(jobs), 0, True
    while pending and go and attempt < policy.attempts:
        width = pool.nprocs
        for job in pending:
            replan(job.plan, width)
        specs = make_specs(pending, attempt)
        t0 = time.perf_counter()
        outcomes = pool.run_batch(specs, timeout_s)
        wall_s = time.perf_counter() - t0
        leaving, retry = [], []
        for job, spec in zip(pending, specs):
            out = job.outcome = outcomes[spec.seq]
            job.spec = spec
            if out.ok:
                leaving.append(job._leave(
                    width, OUTCOME_RECOVERED if attempt else OUTCOME_CLEAN
                ))
                if attempt:
                    log.info("job %s recovered on attempt %d (P=%d)",
                             job.label, attempt, width)
                continue
            job.failure = fanout_error(out, pool)
            salvaged = _harvest_checkpoint(out, job.plan.tg, job.checkpoint)
            if any(res.trace is not None for res in out.results.values()):
                job.traces.append(RunTrace.from_workers(
                    {r: res.trace for r, res in out.results.items()},
                    meta={"nprocs": width, "attempt": attempt, "failed": True},
                    attempt=attempt,
                ))
            job.report.attempts.append(FailedAttempt(
                attempt, width, list(out.failed_ranks), str(job.failure),
                salvaged, wall_s,
            ))
            log.warning("job %s: %s", job.label, job.report.attempts[-1])
            if out.expired:
                leaving.append(job._leave(width))
            elif any(
                out.results[r].metrics.error_type in NOT_RETRYABLE
                for r in out.failed_ranks if r in out.results
            ):
                leaving.append(job._leave(width, OUTCOME_DEGRADED))
            else:
                retry.append(job)
        # Ranks are shed only for an attempt that will follow.
        again = retry if attempt + 1 < policy.attempts else []
        healed = settle(pool, policy, [job.outcome for job in again])
        go = settled is None or settled(healed)
        yield from leaving
        pending, attempt = retry, attempt + 1
    for job in pending:
        yield job._leave(pool.nprocs, OUTCOME_DEGRADED)


def last_resort(job: RecoveryJob) -> tuple[BlockCholesky, RuntimeMetrics]:
    """The sequential factorization that stands in for a job no parallel
    attempt finished: always correct, bitwise equal to the parallel
    factor. What it raises (``LinAlgError`` for a matrix that is not
    positive definite) is the job's canonical error."""
    log.warning("job %s: sequential fallback after %d failed attempt(s)",
                job.label, len(job.report.attempts))
    t0 = time.perf_counter()
    factor = BlockCholesky(job.plan.structure, job.A).factor()
    job._leave(1, OUTCOME_DEGRADED)
    metrics = RuntimeMetrics(
        nprocs=1, wall_s=time.perf_counter() - t0, workers=[],
        mapping=SEQUENTIAL_MAPPING,
    )
    return factor, metrics


def run_with_recovery(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    config: RunConfig | None = None,
    *,
    fault_plan: FaultPlan | None = None,
    fallback_sequential: bool = True,
    **overrides,
) -> MPRuntimeResult:
    """Factor ``A`` in parallel, restarting on failure, degrading last.

    Runs under a :class:`~repro.config.RunConfig` (``config`` and/or
    keyword overrides): one crew of ``nprocs`` workers (and one arena)
    serves every attempt, healed onto the survivors in between; the
    placement group plans each attempt, the recovery-tuning group bounds
    it (``max_restarts``; ``dead_grace_s`` defaults to 10 s here). Every
    attempt runs the in-run integrity protocol and resumes from the
    blocks earlier ones completed. Returns an :class:`MPRuntimeResult`
    whose ``failure_report`` is always populated. Raises the last
    attempt's :class:`~repro.runtime.engine.FanoutError` (carrying the
    report) if ``fallback_sequential`` is disabled and every parallel
    attempt failed, and whatever the sequential fallback raises.
    """
    config = RunConfig.of(config, overrides)
    if config.dead_grace_s is None:
        config = replace(config, dead_grace_s=10.0)
    A = A.tocsc()
    job = RecoveryJob(OwnerPlan(structure, tg, config), A)
    policy = RecoveryPolicy(
        attempts=config.max_restarts + 1, raising_rank_is_casualty=True
    )
    with one_shot_crew(tg, config) as (pool, arena, transport, launch_s):

        def specs(pending, attempt):
            return [one_shot_job(
                structure, A, tg, job.plan.owners, config, arena, seq=attempt,
                fault_plan=fault_plan.for_attempt(attempt) if fault_plan
                else None,
                recovery=True, checkpoint=job.checkpoint or None,
            )]

        (job,) = recover(pool, [job], specs, policy, config.timeout_s)
    report = job.report
    if job.finished:
        res = fanout_result(
            job.outcome, job.spec, job.plan.mapping_name, transport, launch_s
        )
        report.recovery_events = res.metrics.recovery_events_total
        report.faults_injected = res.metrics.faults_injected_total
        res.failure_report = report
    elif not fallback_sequential:
        job.failure.failure_report = report
        raise job.failure
    else:
        factor, metrics = last_resort(job)
        res = MPRuntimeResult(
            factor=factor,
            metrics=metrics,
            owners=np.zeros(tg.nblocks, dtype=np.int64),
            mapping=SEQUENTIAL_MAPPING,
            meta={"fallback": True},
            failure_report=report,
        )
    if job.traces:
        # Failed attempts' salvaged events first, so the trace tells the
        # whole multi-attempt story.
        res.trace = RunTrace.concat([*job.traces, res.trace])
    return res
