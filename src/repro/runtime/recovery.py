"""Driver-level checkpoint/restart for the message-passing runtime.

:func:`run_with_recovery` wraps :func:`~repro.runtime.engine.run_mp_fanout`
in a bounded restart loop:

1. run the factorization with the in-run integrity protocol enabled
   (CRC reject + NACK/retransmit + duplicate suppression);
2. if the attempt dies (worker crash, death without reporting, timeout),
   harvest the completed-block *checkpoint* every reporting worker shipped
   home, shrink the block map onto the P - f surviving processes, and
   restart — checkpointed blocks are preloaded, their tasks skipped;
3. after ``max_restarts`` failed restarts (or when shrunk to nothing),
   degrade to the sequential :class:`~repro.numeric.blockfact.BlockCholesky`
   backend as a last resort.

Every attempt is logged in a structured :class:`FailureReport` attached to
the returned :class:`~repro.runtime.engine.MPRuntimeResult`, so a caller
can always tell whether the factor came from a clean run, a recovered
restart, or the sequential fallback — never from a silent wrong answer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.config import RunConfig
from repro.fanout.tasks import TaskGraph
from repro.numeric.blockfact import BlockCholesky
from repro.runtime import wire
from repro.runtime.engine import (
    FanoutError,
    MPRuntimeResult,
    plan_owners,
    run_mp_fanout,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.trace import RunTrace

#: FailureReport.outcome values. The service layer reuses these to tag
#: each JobRecord with how the job survived (clean / re-run after a pool
#: heal / per-job sequential fallback).
OUTCOME_CLEAN = "clean"
OUTCOME_RECOVERED = "recovered"
OUTCOME_DEGRADED = "degraded_sequential"

#: Mapping name reported by sequential-fallback results.
SEQUENTIAL_MAPPING = "sequential-fallback"


@dataclass
class FailedAttempt:
    """One failed parallel attempt, as recorded by the restart loop."""

    attempt: int
    nprocs: int
    failed_ranks: list[int]
    error: str
    checkpoint_blocks: int
    wall_s: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


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
        d = dict(self.__dict__)
        d["attempts"] = [a.to_dict() for a in self.attempts]
        return d

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        lines = [
            f"outcome={self.outcome} restarts={self.restarts} "
            f"final_P={self.final_nprocs} "
            f"checkpoint_blocks={self.checkpoint_blocks_used} "
            f"recovery_events={self.recovery_events}"
        ]
        for a in self.attempts:
            lines.append(
                f"  attempt {a.attempt} (P={a.nprocs}) failed "
                f"[ranks {a.failed_ranks}] after {a.wall_s * 1e3:.0f} ms, "
                f"salvaged {a.checkpoint_blocks} blocks: "
                f"{a.error.strip().splitlines()[-1] if a.error else '?'}"
            )
        if self.faults_injected:
            lines.append(f"  faults injected: {self.faults_injected}")
        return "\n".join(lines)


def _harvest_checkpoint(
    exc: FanoutError, tg: TaskGraph, checkpoint: dict[int, bytes]
) -> None:
    """Fold the completed-block frames salvaged from a failed attempt into
    the running checkpoint (frames are CRC-verified before acceptance).

    Checkpoint frames carry their payload on every transport, so they
    outlive the failed attempt's arena."""
    for res in exc.results.values():
        for frame in res.frames:
            try:
                b = wire.frame_block(frame)
                if b in checkpoint or not 0 <= b < tg.nblocks:
                    continue
                wire.unpack(frame)  # CRC + shape check; corrupt -> skip
            except wire.WireError:
                continue
            checkpoint[b] = frame


def _salvage_trace(exc: FanoutError, attempt: int, P: int) -> RunTrace | None:
    """Merge the worker traces a failed attempt shipped home (None when
    the attempt ran untraced or nothing was salvaged)."""
    worker_traces = {
        r: res.trace for r, res in exc.results.items()
        if getattr(res, "trace", None) is not None
    }
    if not worker_traces:
        return None
    return RunTrace.from_workers(
        worker_traces,
        meta={"nprocs": P, "attempt": attempt, "failed": True},
        attempt=attempt,
    )


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
    keyword overrides): the placement group plans each attempt, the
    recovery-tuning group bounds it (``max_restarts``; ``dead_grace_s``
    defaults to 10 s here), the rest flows to :func:`run_mp_fanout`.
    Returns an :class:`MPRuntimeResult` whose ``failure_report`` is always
    populated. Raises only if ``fallback_sequential`` is disabled and
    every parallel attempt failed.
    """
    config = RunConfig.of(config, overrides)
    if config.dead_grace_s is None:
        config = replace(config, dead_grace_s=10.0)
    t_start = time.perf_counter()
    report = FailureReport()
    checkpoint: dict[int, bytes] = {}
    P = config.nprocs
    last_exc: FanoutError | None = None
    salvaged_traces: list[RunTrace] = []
    for attempt in range(config.max_restarts + 1):
        owners, name = plan_owners(
            tg.workmodel, tg, P, config.mapping, config.use_domains
        )
        plan_a = fault_plan.for_attempt(attempt) if fault_plan else None
        t_attempt = time.perf_counter()
        try:
            res = run_mp_fanout(
                structure, A, tg, owners, P, config,
                mapping=name,
                fault_plan=plan_a,
                recovery=True,
                checkpoint=checkpoint or None,
            )
        except FanoutError as exc:
            last_exc = exc
            before = len(checkpoint)
            _harvest_checkpoint(exc, tg, checkpoint)
            salvage = _salvage_trace(exc, attempt, P)
            if salvage is not None:
                salvaged_traces.append(salvage)
            report.attempts.append(FailedAttempt(
                attempt=attempt,
                nprocs=P,
                failed_ranks=list(exc.failed_ranks),
                error=str(exc),
                checkpoint_blocks=len(checkpoint) - before,
                wall_s=time.perf_counter() - t_attempt,
            ))
            # Shrink the block map onto the surviving processes.
            P = max(1, P - max(1, len(exc.failed_ranks)))
            continue
        report.outcome = (
            OUTCOME_CLEAN if attempt == 0 else OUTCOME_RECOVERED
        )
        report.restarts = attempt
        report.final_nprocs = P
        report.checkpoint_blocks_used = len(checkpoint)
        report.recovery_events = res.metrics.recovery_events_total
        report.faults_injected = res.metrics.faults_injected_total
        report.wall_s = time.perf_counter() - t_start
        res.failure_report = report
        if salvaged_traces:
            # Prepend the failed attempts' salvaged events so the final
            # trace tells the whole multi-attempt story.
            res.trace = RunTrace.concat([*salvaged_traces, res.trace])
        return res

    if not fallback_sequential:
        report.outcome = OUTCOME_DEGRADED
        assert last_exc is not None
        last_exc.failure_report = report  # type: ignore[attr-defined]
        raise last_exc

    # Last resort: the sequential backend (always correct, never parallel).
    factor = BlockCholesky(structure, A).factor()
    report.outcome = OUTCOME_DEGRADED
    report.restarts = len(report.attempts)
    report.final_nprocs = 1
    report.checkpoint_blocks_used = len(checkpoint)
    report.wall_s = time.perf_counter() - t_start
    metrics = RuntimeMetrics(
        nprocs=1, wall_s=report.wall_s, workers=[],
        mapping=SEQUENTIAL_MAPPING,
    )
    res = MPRuntimeResult(
        factor=factor,
        metrics=metrics,
        owners=np.zeros(tg.nblocks, dtype=np.int64),
        mapping=SEQUENTIAL_MAPPING,
        meta={"fallback": True},
        failure_report=report,
        trace=RunTrace.concat(salvaged_traces) if salvaged_traces else None,
    )
    return res
