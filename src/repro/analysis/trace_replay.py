"""Trace replay: recompute a run's metrics from the structured trace alone.

The structured trace (:mod:`repro.runtime.trace`) mirrors the metrics
timeline event for event, so :func:`replay_trace` rebuilds, from one
attempt's events, the :class:`~repro.runtime.metrics.RuntimeMetrics` the
run reported: one :class:`~repro.runtime.metrics.WorkerMetrics` per rank
with every field in :data:`REPLAYED` — busy/comm/idle seconds (solve
phase included), executed tasks, ops and work, message and byte ledgers,
steal tallies. Sums accumulate per rank in event order, which reproduces
the worker's own float summation exactly, so on any finished run the
reconciliation is exact: bit-identical seconds, integer-equal counters.

:func:`validate_trace` layers the cross-checks:

* structural: monotone per-worker timestamps, every task at most once
  per attempt, no ring overflow, and the paper's §3.2 statistics of the
  replayed work (overall <= row, column, diagonal; realized on the
  processor grid recorded in the trace, through
  :func:`~repro.mapping.balance.grid_balance`);
* against the reported :class:`RuntimeMetrics`: every :data:`REPLAYED`
  field of every rank equal, and both balances within ``tolerance``;
* against the static models: :func:`~repro.analysis.model_check.
  check_models`, the same checks
  :func:`~repro.runtime.validation.validate_runtime` makes.

Work stealing (``schedule="dynamic"``) is reconciled exactly, not
waived: a stolen task's span carries a ``stolen_from`` arg, so the replay
credits the thief's ``tasks_stolen`` / ``work_stolen`` and the victim's
``tasks_shipped`` / ``work_shipped``, and the model check holds the
migration-adjusted work to the owner share. Steal protocol time lands in
``"steal"`` spans (bucketed as comm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.model_check import check_models
from repro.mapping.balance import BalanceReport, grid_balance
from repro.mapping.grid import ProcessorGrid
from repro.runtime.metrics import RuntimeMetrics, WorkerMetrics
from repro.runtime.trace import TIMELINE_BUCKET

#: The :class:`WorkerMetrics` fields a trace replays; :func:`validate_trace`
#: requires each to equal the reported one exactly, rank by rank.
REPLAYED = (
    "busy_s", "comm_s", "idle_s",
    "tasks_executed", "ops_executed", "task_counts",
    "flops_executed", "work_executed",
    "messages_sent", "bytes_sent", "messages_received", "bytes_received",
    "wire_bytes_sent", "wire_bytes_received",
    "steal_reqs_sent", "steal_grants", "steal_denies",
    "tasks_stolen", "tasks_shipped", "work_stolen", "work_shipped",
    "solve_busy_s", "solve_comm_s", "solve_idle_s",
    "solve_tasks_executed", "solve_task_counts", "solve_work_executed",
    "solve_messages_sent", "solve_bytes_sent",
    "solve_messages_received", "solve_bytes_received",
)

#: ``steal`` span name -> the counter it ticks.
_STEAL_COUNTER = {"steal_req": "steal_reqs_sent",
                  "steal_grant": "steal_grants",
                  "steal_deny": "steal_denies"}


def replay_trace(trace, attempt: int | None = None) -> RuntimeMetrics:
    """The :class:`RuntimeMetrics` one attempt of ``trace`` mirrors.

    ``attempt`` picks one attempt of a multi-attempt (recovery) trace;
    default is the final one. Only the :data:`REPLAYED` fields are
    recomputed. ``extra`` holds what only the trace knows: ``attempt``,
    ``grid`` (``(Pr, Pc)`` or None), ``marks`` (instant events by name)
    and ``steal_s`` (per-rank seconds in the steal protocol, part of
    comm).
    """
    attempts = trace.attempts
    if attempt is None:
        attempt = attempts[-1] if attempts else 0
    nprocs = trace.nprocs
    ws = [WorkerMetrics(rank=r) for r in range(nprocs)]
    marks: dict[str, int] = {}
    steal_s = [0.0] * nprocs

    for e in trace.events:
        if e.attempt != attempt:
            continue
        w, args, cat = ws[e.rank], e.args or {}, e.cat
        bucket = TIMELINE_BUCKET.get(cat)
        if bucket is not None:
            # A PFAC that sent L_KK mid-span carries that publish's
            # seconds, which the worker kept out of its busy total.
            if "publish_s" in args:
                w.busy_s -= args["publish_s"]
            name = bucket + "_s"
            setattr(w, name, getattr(w, name) + (e.t1 - e.t0))
        if cat == "task":
            # A panel update (PMOD) ran the BMODs it lists in one span, a
            # panel factor (PFAC) its BFAC, if ``bfac``, and BDIVs, the
            # local pass (LOCAL, no dispatched op) the ``bfac`` BFACs and
            # the BDIVs of its ``blocks``, and the BMODs into them.
            kind, n = e.name.partition("(")[0], len(args["tids"])
            nb = 0 if kind == "PMOD" else len(args["blocks"])
            bfac = int(args.get("bfac", 0))
            w.ops_executed += kind != "LOCAL"
            w.tasks_executed += n
            w.task_counts["BFAC"] += bfac
            w.task_counts["BDIV"] += nb - bfac
            w.task_counts["BMOD"] += n - nb
            work = int(args.get("work", 0))
            w.work_executed += work
            w.flops_executed += int(args.get("flops", 0))
            victim = args.get("stolen_from")
            if victim is not None:
                w.tasks_stolen += n
                w.work_stolen += work
                if 0 <= int(victim) < nprocs:
                    ws[int(victim)].tasks_shipped += n
                    ws[int(victim)].work_shipped += work
        elif cat == "send":
            n = len(args.get("targets", ()))
            nb = int(args.get("bytes", 0))
            w.messages_sent += n
            w.bytes_sent += n * nb
            # Older traces carry no ``wire_bytes``: inline, wire == logical.
            w.wire_bytes_sent += n * int(args.get("wire_bytes", nb))
        elif cat == "recv":
            nb = int(args.get("bytes", 0))
            w.messages_received += 1
            w.bytes_received += nb
            w.wire_bytes_received += int(args.get("wire_bytes", nb))
        elif cat == "steal":
            steal_s[e.rank] += e.t1 - e.t0
            counter = _STEAL_COUNTER.get(e.name)
            if counter is not None:
                setattr(w, counter, getattr(w, counter) + 1)
        elif cat == "solve_task":
            counts = args.get("counts") or {e.name.partition("(")[0]: 1}
            for kind, n in counts.items():  # FLOCAL / BLOCAL: several
                w.solve_tasks_executed += n
                c = w.solve_task_counts  # an unknown kind fails the check
                c[kind] = c.get(kind, 0) + n
            w.solve_work_executed += int(args.get("work", 0))
        elif cat == "solve_send":
            n = len(args.get("targets", ()))
            w.solve_messages_sent += n
            w.solve_bytes_sent += n * int(args.get("bytes", 0))
        elif cat == "solve_recv":
            w.solve_messages_received += 1
            w.solve_bytes_received += int(args.get("bytes", 0))
        elif cat == "mark":
            marks[e.name] = marks.get(e.name, 0) + 1

    meta = trace.meta
    grid = meta.get("grid")
    return RuntimeMetrics(
        nprocs=nprocs, wall_s=float(meta.get("wall_s", 0.0)), workers=ws,
        mapping=str(meta.get("mapping", "")),
        problem=str(meta.get("problem", "")),
        schedule=str(meta.get("schedule", "static")),
        extra={
            "attempt": attempt,
            "grid": (int(grid[0]), int(grid[1])) if grid else None,
            "marks": marks,
            "steal_s": steal_s,
        },
    )


@dataclass
class TraceValidationReport:
    """Outcome of :func:`validate_trace`: the replayed metrics, the §3.2
    statistics of their work on the recorded grid (None without one),
    and the checks passed and failed."""

    replay: RuntimeMetrics
    balance: BalanceReport | None = None
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        rep = self.replay
        t = {name: sum(getattr(w, name) for w in rep.workers)
             for name in ("busy_s", "comm_s", "idle_s", "solve_busy_s",
                          "solve_comm_s", "solve_idle_s")}
        lines = [
            f"trace replay (attempt {rep.extra['attempt']}, "
            f"P={rep.nprocs}): {'OK' if self.ok else 'FAILED'}",
            f"  busy={t['busy_s']:.4f}s idle={t['idle_s']:.4f}s "
            f"comm={t['comm_s']:.4f}s tasks={rep.tasks_total}",
            f"  messages={rep.messages_total} ({rep.bytes_total} bytes)",
            f"  balance: measured={rep.measured_balance:.4f} "
            f"overall={rep.work_balance:.4f}",
        ]
        bal = self.balance
        if bal is not None:
            diag = "n/a" if bal.diagonal is None else f"{bal.diagonal:.4f}"
            lines.append(f"  row={bal.row:.4f} col={bal.column:.4f} "
                         f"diag={diag}")
        if rep.solve_tasks_total:
            lines.append(
                f"  solve: {rep.solve_tasks_total} tasks "
                f"({rep.solve_work_total} work), "
                f"{rep.solve_messages_total} messages "
                f"({rep.solve_bytes_total} bytes), "
                f"busy={t['solve_busy_s']:.4f}s "
                f"comm={t['solve_comm_s']:.4f}s "
                f"idle={t['solve_idle_s']:.4f}s"
            )
        if rep.tasks_stolen_total:
            lines.append(
                f"  steals: {rep.tasks_stolen_total} tasks "
                f"({rep.work_stolen_total} work) migrated, "
                f"{rep.steal_reqs_total} requests / "
                f"{rep.steal_grants_total} grants / "
                f"{rep.steal_denies_total} denies, "
                f"overhead {sum(rep.extra['steal_s']):.4f}s"
            )
        lines.extend(f"  pass: {c}" for c in self.checks)
        lines.extend(f"  FAIL: {f}" for f in self.failures)
        return "\n".join(lines)


class TraceValidationError(AssertionError):
    """The trace disagreed with the metrics or the static models."""


def validate_trace(
    trace,
    metrics=None,
    tg=None,
    owners=None,
    attempt: int | None = None,
    tolerance: float = 1e-9,
    strict: bool = False,
) -> TraceValidationReport:
    """Replay ``trace`` and cross-check it against everything we know.

    ``metrics`` (a :class:`~repro.runtime.metrics.RuntimeMetrics`) enables
    the exact runtime reconciliation; ``tg`` + ``owners`` enable the
    static-model checks of :func:`~repro.analysis.model_check.check_models`
    (WorkModel shares and their balance, communication volume, solve
    volume). Every check applies to every trace: the attempt a recovered
    job reports is an ordinary run.
    With ``strict``, failures raise :class:`TraceValidationError`.
    """
    rep = replay_trace(trace, attempt=attempt)
    attempt = rep.extra["attempt"]
    report = TraceValidationReport(replay=rep)
    checks, failures = report.checks, report.failures

    # ------------------------------------------------------------------
    # Structural invariants.
    # ------------------------------------------------------------------
    if trace.total_dropped:
        failures.append(
            f"ring overflow dropped {trace.total_dropped} events; "
            "replay is incomplete"
        )
    # Events are appended when they *close* (spans at t1, marks at their
    # instant), so per worker the end times are non-decreasing in recorded
    # order — even when a mark fires inside a span still being measured.
    for rank, events in sorted(trace.per_worker(attempt).items()):
        prev = -np.inf
        for e in events:
            if e.t1 < e.t0:
                failures.append(
                    f"worker {rank}: event {e.name!r} ends before it "
                    f"starts ({e.t1} < {e.t0})"
                )
                break
            if e.t1 < prev:
                failures.append(
                    f"worker {rank}: non-monotone event order at "
                    f"{e.name!r} (ends {e.t1}, earlier than {prev})"
                )
                break
            prev = e.t1
    if not any(f.startswith("worker") for f in failures):
        checks.append("per-worker timestamps monotone")

    seen_tids: dict[int, int] = {}
    for e in trace.events:
        if e.attempt == attempt and e.cat == "task":
            for t in e.args["tids"]:
                seen_tids[t] = seen_tids.get(t, 0) + 1
    repeated = {t: c for t, c in seen_tids.items() if c > 1}
    if repeated:
        failures.append(
            f"{len(repeated)} tasks executed more than once in attempt "
            f"{attempt} (e.g. {sorted(repeated)[:5]})"
        )
    else:
        checks.append("every task executed at most once per attempt")

    # Balance sanity: overall can never exceed the marginal statistics.
    grid = rep.extra["grid"]
    if grid is not None:
        bal = report.balance = grid_balance(rep.work, ProcessorGrid(*grid))
        margins = [m for m in (bal.row, bal.column, bal.diagonal)
                   if m is not None]
        if bal.overall > min(margins) + 1e-12:
            failures.append(
                f"overall balance {bal.overall:.6f} exceeds a "
                f"marginal balance (min {min(margins):.6f})"
            )
        else:
            checks.append("overall <= row/column/diagonal balance")

    # ------------------------------------------------------------------
    # Against the measured RuntimeMetrics: exact, field by field.
    # ------------------------------------------------------------------
    if metrics is not None:
        before = len(failures)
        for w in metrics.workers:
            mine = rep.workers[w.rank]
            for name in REPLAYED:
                got, want = getattr(mine, name), getattr(w, name)
                if got != want:
                    failures.append(
                        f"worker {w.rank}: replayed {name} {got!r} != "
                        f"metrics {want!r}"
                    )
        for name in ("measured_balance", "work_balance"):
            got, want = getattr(rep, name), getattr(metrics, name)
            if abs(got - want) > tolerance:
                failures.append(
                    f"replayed {name} {got!r} != metrics {want!r}"
                )
        if len(failures) == before:
            checks.append("replay reconciles with RuntimeMetrics")

    # ------------------------------------------------------------------
    # Against the static models.
    # ------------------------------------------------------------------
    if tg is not None and owners is not None:
        # The number of right-hand sides is recorded in the metadata.
        nrhs = int(trace.meta.get("nrhs", 1)) or 1
        model = check_models(rep, tg, owners, nrhs, tolerance)
        checks.extend(model.checks)
        failures.extend(model.failures)

    if strict and failures:
        raise TraceValidationError(report.summary())
    return report
