"""Trace replay: recompute run statistics from the structured trace alone.

The structured trace (:mod:`repro.runtime.trace`) mirrors the metrics
timeline event for event, so everything
:class:`~repro.runtime.metrics.RuntimeMetrics` reports — per-worker
busy/comm/idle time, executed work, message counts and bytes — can be
*recomputed from the trace* and cross-checked. On a fault-free run the
reconciliation is exact (bit-identical float sums, integer-equal
counters); the same replay also recomputes the paper's §3.2 balance
statistics (overall, row, column, diagonal — realized, not modeled) from
the per-rank work and the processor grid recorded in the trace metadata.

:func:`replay_trace` produces the per-worker profile;
:func:`validate_trace` layers the cross-checks:

* structural: monotone per-worker timestamps, every task exactly once
  per attempt, no ring overflow;
* against :class:`RuntimeMetrics`: busy/comm/idle seconds exact,
  work/messages/bytes integer-equal, balance within tolerance;
* against the static models: per-worker work equals the
  :class:`~repro.blocks.workmodel.WorkModel` share of the ownership,
  message/byte totals equal
  :func:`~repro.analysis.comm_volume.communication_volume`, and the
  replayed overall balance matches
  :func:`~repro.mapping.balance.overall_balance_from_owners` to 1e-9.

Work stealing (``schedule="dynamic"``) is reconciled exactly, not
waived: a stolen task's span carries a ``stolen_from`` arg, so the replay
splits executed work into owned and migrated portions per worker and
checks the *migration-adjusted* identity
``executed - migrated_in + migrated_away == WorkModel owner share``
to the integer. Steal protocol time lands in ``"steal"`` spans (bucketed
as comm), giving the static-vs-dynamic idle/overhead comparison its
denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.mapping.balance import overall_balance_from_owners


def _balance(values: np.ndarray) -> float:
    """The paper's statistic: ``total / (P * max)`` (1.0 is perfect)."""
    m = float(values.max(initial=0.0))
    if m <= 0:
        return 1.0
    return float(values.sum() / (values.shape[0] * m))


@dataclass
class TraceReplay:
    """Per-worker profile recomputed from a trace (one attempt)."""

    attempt: int
    nprocs: int
    grid: tuple[int, int] | None
    busy_s: np.ndarray
    comm_s: np.ndarray
    idle_s: np.ndarray
    work: np.ndarray
    flops: np.ndarray
    tasks: np.ndarray
    task_counts: list[dict[str, int]]
    messages_sent: np.ndarray
    bytes_sent: np.ndarray
    messages_received: np.ndarray
    bytes_received: np.ndarray
    #: Transported bytes (``wire_bytes`` span args): what actually crossed
    #: the queues. Falls back to the logical ``bytes`` for traces recorded
    #: before the transport split, so inline traces reconcile either way.
    wire_bytes_sent: np.ndarray
    wire_bytes_received: np.ndarray
    marks: dict[str, int]
    #: Work stealing (zero everywhere on static runs): time spent in the
    #: steal protocol (part of comm), per-worker migrated task/work flows
    #: (``in`` = executed here for another owner, ``away`` = granted to a
    #: thief), and the protocol frame counts.
    steal_s: np.ndarray = None
    migrated_in_tasks: np.ndarray = None
    migrated_away_tasks: np.ndarray = None
    migrated_in_work: np.ndarray = None
    migrated_away_work: np.ndarray = None
    steal_reqs: np.ndarray = None
    steal_grants: np.ndarray = None
    steal_denies: np.ndarray = None
    #: Solve phase (zero everywhere on factor-only runs): replayed
    #: busy/comm/idle seconds, per-worker solve tasks/work, and the solve
    #: plane's message/byte ledger (logical == wire for solve frames).
    solve_busy_s: np.ndarray = None
    solve_comm_s: np.ndarray = None
    solve_idle_s: np.ndarray = None
    solve_tasks: np.ndarray = None
    solve_work: np.ndarray = None
    solve_task_counts: list = None
    solve_messages_sent: np.ndarray = None
    solve_bytes_sent: np.ndarray = None
    solve_messages_received: np.ndarray = None
    solve_bytes_received: np.ndarray = None
    #: Dispatched ops (one ``task`` span each; ``tasks`` counts the
    #: task-graph tasks they ran, a panel update's members included).
    ops: np.ndarray = None

    @property
    def solved(self) -> bool:
        """True when this attempt ran a distributed solve phase."""
        return bool(self.solve_tasks.sum())

    # ------------------------------------------------------------------
    @property
    def migrated(self) -> bool:
        """True when any task ran away from its owner (dynamic schedule)."""
        return bool(self.migrated_in_tasks.sum())

    @property
    def owner_work(self) -> np.ndarray:
        """Migration-adjusted work: what each worker's *owned* tasks cost,
        wherever they ran — equals the static WorkModel share exactly."""
        return self.work - self.migrated_in_work + self.migrated_away_work

    @property
    def measured_balance(self) -> float:
        """Balance of replayed busy seconds."""
        return _balance(self.busy_s)

    @property
    def work_balance(self) -> float:
        """Overall balance of replayed work units (§3.2 'overall')."""
        return _balance(self.work.astype(float))

    def _grid_work(self) -> tuple[np.ndarray, int, int]:
        if self.grid is None:
            raise ValueError("trace metadata carries no processor grid")
        Pr, Pc = self.grid
        if Pr * Pc != self.nprocs:
            raise ValueError(
                f"grid {Pr}x{Pc} does not cover {self.nprocs} workers"
            )
        return self.work.astype(float), Pr, Pc

    @property
    def row_balance(self) -> float:
        """Realized row balance: work aggregated per grid row."""
        w, Pr, Pc = self._grid_work()
        rows = np.arange(self.nprocs) // Pc
        row_work = np.bincount(rows, weights=w, minlength=Pr)
        m = float(row_work.max(initial=0.0))
        if m <= 0:
            return 1.0
        return float(w.sum() / (self.nprocs * m / Pc))

    @property
    def column_balance(self) -> float:
        """Realized column balance: work aggregated per grid column."""
        w, Pr, Pc = self._grid_work()
        cols = np.arange(self.nprocs) % Pc
        col_work = np.bincount(cols, weights=w, minlength=Pc)
        m = float(col_work.max(initial=0.0))
        if m <= 0:
            return 1.0
        return float(w.sum() / (self.nprocs * m / Pr))

    @property
    def diagonal_balance(self) -> float | None:
        """Realized diagonal balance (square grids only, like §3.2)."""
        w, Pr, Pc = self._grid_work()
        if Pr != Pc:
            return None
        ranks = np.arange(self.nprocs)
        d = (ranks // Pc - ranks % Pc) % Pr
        diag_work = np.bincount(d, weights=w, minlength=Pr)
        m = float(diag_work.max(initial=0.0))
        if m <= 0:
            return 1.0
        return float(w.sum() / (self.nprocs * m / Pr))


def replay_trace(trace, attempt: int | None = None) -> TraceReplay:
    """Recompute the per-worker execution profile from a trace.

    ``attempt`` picks one attempt of a multi-attempt (recovery) trace;
    default is the final one. Sums are accumulated per worker in event
    order, which reproduces the worker's own float summation exactly.
    """
    attempts = trace.attempts
    if attempt is None:
        attempt = attempts[-1] if attempts else 0
    nprocs = trace.nprocs
    grid = trace.meta.get("grid")
    grid = (int(grid[0]), int(grid[1])) if grid else None

    busy = np.zeros(nprocs)
    comm = np.zeros(nprocs)
    idle = np.zeros(nprocs)
    work = np.zeros(nprocs, dtype=np.int64)
    flops = np.zeros(nprocs, dtype=np.int64)
    tasks = np.zeros(nprocs, dtype=np.int64)
    ops = np.zeros(nprocs, dtype=np.int64)
    task_counts = [
        {"BFAC": 0, "BDIV": 0, "BMOD": 0} for _ in range(nprocs)
    ]
    msent = np.zeros(nprocs, dtype=np.int64)
    bsent = np.zeros(nprocs, dtype=np.int64)
    mrecv = np.zeros(nprocs, dtype=np.int64)
    brecv = np.zeros(nprocs, dtype=np.int64)
    wsent = np.zeros(nprocs, dtype=np.int64)
    wrecv = np.zeros(nprocs, dtype=np.int64)
    marks: dict[str, int] = {}
    steal_s = np.zeros(nprocs)
    mig_in_t = np.zeros(nprocs, dtype=np.int64)
    mig_away_t = np.zeros(nprocs, dtype=np.int64)
    mig_in_w = np.zeros(nprocs, dtype=np.int64)
    mig_away_w = np.zeros(nprocs, dtype=np.int64)
    sreqs = np.zeros(nprocs, dtype=np.int64)
    sgrants = np.zeros(nprocs, dtype=np.int64)
    sdenies = np.zeros(nprocs, dtype=np.int64)
    sv_busy = np.zeros(nprocs)
    sv_comm = np.zeros(nprocs)
    sv_idle = np.zeros(nprocs)
    sv_tasks = np.zeros(nprocs, dtype=np.int64)
    sv_work = np.zeros(nprocs, dtype=np.int64)
    sv_counts = [
        {"FSOLVE": 0, "FUPD": 0, "BSOLVE": 0, "BUPD": 0}
        for _ in range(nprocs)
    ]
    sv_msent = np.zeros(nprocs, dtype=np.int64)
    sv_bsent = np.zeros(nprocs, dtype=np.int64)
    sv_mrecv = np.zeros(nprocs, dtype=np.int64)
    sv_brecv = np.zeros(nprocs, dtype=np.int64)

    for e in trace.events:
        if e.attempt != attempt:
            continue
        r = e.rank
        if e.cat == "task":
            # A PFAC that sent L_KK mid-span carries that publish's
            # seconds, which the worker kept out of its busy total.
            if e.args and "publish_s" in e.args:
                busy[r] -= e.args["publish_s"]
            busy[r] += e.t1 - e.t0
            ops[r] += 1
            # A panel update (PMOD) ran the BMODs it lists in one span, a
            # panel factor (PFAC) its BFAC, if ``bfac``, and BDIVs.
            tids = e.args.get("tids") if e.args else None
            n = 1 if tids is None else len(tids)
            tasks[r] += n
            kind = e.name.partition("(")[0]
            if kind == "PFAC":
                bfac = int(e.args.get("bfac", 0))
                task_counts[r]["BFAC"] += bfac
                task_counts[r]["BDIV"] += n - bfac
            else:
                kind = "BMOD" if kind == "PMOD" else kind
                if kind in task_counts[r]:
                    task_counts[r][kind] += n
            if e.args:
                w = int(e.args.get("work", 0))
                work[r] += w
                flops[r] += int(e.args.get("flops", 0))
                victim = e.args.get("stolen_from")
                if victim is not None:
                    mig_in_t[r] += n
                    mig_in_w[r] += w
                    if 0 <= int(victim) < nprocs:
                        mig_away_t[int(victim)] += n
                        mig_away_w[int(victim)] += w
        elif e.cat == "send":
            comm[r] += e.t1 - e.t0
            if e.args:
                n = len(e.args.get("targets", ()))
                nb = int(e.args.get("bytes", 0))
                msent[r] += n
                bsent[r] += n * nb
                wsent[r] += n * int(e.args.get("wire_bytes", nb))
        elif e.cat == "recv":
            comm[r] += e.t1 - e.t0
            mrecv[r] += 1
            if e.args:
                nb = int(e.args.get("bytes", 0))
                brecv[r] += nb
                wrecv[r] += int(e.args.get("wire_bytes", nb))
        elif e.cat == "comm":
            comm[r] += e.t1 - e.t0
        elif e.cat == "steal":
            comm[r] += e.t1 - e.t0
            steal_s[r] += e.t1 - e.t0
            if e.name == "steal_req":
                sreqs[r] += 1
            elif e.name == "steal_grant":
                sgrants[r] += 1
            elif e.name == "steal_deny":
                sdenies[r] += 1
        elif e.cat == "idle":
            idle[r] += e.t1 - e.t0
        elif e.cat == "solve_task":
            sv_busy[r] += e.t1 - e.t0
            sv_tasks[r] += 1
            kind = e.name.partition("(")[0]
            if kind in sv_counts[r]:
                sv_counts[r][kind] += 1
            if e.args:
                sv_work[r] += int(e.args.get("work", 0))
        elif e.cat == "solve_send":
            sv_comm[r] += e.t1 - e.t0
            if e.args:
                n = len(e.args.get("targets", ()))
                sv_msent[r] += n
                sv_bsent[r] += n * int(e.args.get("bytes", 0))
        elif e.cat == "solve_recv":
            sv_comm[r] += e.t1 - e.t0
            sv_mrecv[r] += 1
            if e.args:
                sv_brecv[r] += int(e.args.get("bytes", 0))
        elif e.cat == "solve_idle":
            sv_idle[r] += e.t1 - e.t0
        elif e.cat == "mark":
            marks[e.name] = marks.get(e.name, 0) + 1

    return TraceReplay(
        attempt=attempt, nprocs=nprocs, grid=grid,
        busy_s=busy, comm_s=comm, idle_s=idle,
        work=work, flops=flops, tasks=tasks, task_counts=task_counts,
        messages_sent=msent, bytes_sent=bsent,
        messages_received=mrecv, bytes_received=brecv,
        wire_bytes_sent=wsent, wire_bytes_received=wrecv,
        marks=marks,
        steal_s=steal_s,
        migrated_in_tasks=mig_in_t, migrated_away_tasks=mig_away_t,
        migrated_in_work=mig_in_w, migrated_away_work=mig_away_w,
        steal_reqs=sreqs, steal_grants=sgrants, steal_denies=sdenies,
        solve_busy_s=sv_busy, solve_comm_s=sv_comm, solve_idle_s=sv_idle,
        solve_tasks=sv_tasks, solve_work=sv_work,
        solve_task_counts=sv_counts,
        solve_messages_sent=sv_msent, solve_bytes_sent=sv_bsent,
        solve_messages_received=sv_mrecv, solve_bytes_received=sv_brecv,
        ops=ops,
    )


@dataclass
class TraceValidationReport:
    """Outcome of :func:`validate_trace`."""

    replay: TraceReplay
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        rep = self.replay
        lines = [
            f"trace replay (attempt {rep.attempt}, P={rep.nprocs}): "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  busy={rep.busy_s.sum():.4f}s idle={rep.idle_s.sum():.4f}s "
            f"comm={rep.comm_s.sum():.4f}s tasks={int(rep.tasks.sum())}",
            f"  messages={int(rep.messages_sent.sum())} "
            f"({int(rep.bytes_sent.sum())} bytes)",
            f"  balance: measured={rep.measured_balance:.4f} "
            f"overall={rep.work_balance:.4f}",
        ]
        if rep.grid is not None:
            diag = rep.diagonal_balance
            lines.append(
                f"  row={rep.row_balance:.4f} col={rep.column_balance:.4f} "
                f"diag={'n/a' if diag is None else f'{diag:.4f}'}"
            )
        if rep.solved:
            lines.append(
                f"  solve: {int(rep.solve_tasks.sum())} tasks "
                f"({int(rep.solve_work.sum())} work), "
                f"{int(rep.solve_messages_sent.sum())} messages "
                f"({int(rep.solve_bytes_sent.sum())} bytes), "
                f"busy={rep.solve_busy_s.sum():.4f}s "
                f"comm={rep.solve_comm_s.sum():.4f}s "
                f"idle={rep.solve_idle_s.sum():.4f}s"
            )
        if rep.migrated:
            lines.append(
                f"  steals: {int(rep.migrated_in_tasks.sum())} tasks "
                f"({int(rep.migrated_in_work.sum())} work) migrated, "
                f"{int(rep.steal_reqs.sum())} requests / "
                f"{int(rep.steal_grants.sum())} grants / "
                f"{int(rep.steal_denies.sum())} denies, "
                f"overhead {rep.steal_s.sum():.4f}s"
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
    static-model checks (WorkModel shares, communication volume, overall
    balance). Every check applies to every trace: the attempt a recovered
    job reports is an ordinary run.
    With ``strict``, failures raise :class:`TraceValidationError`.
    """
    rep = replay_trace(trace, attempt=attempt)
    checks: list[str] = []
    failures: list[str] = []

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
    for rank, events in sorted(trace.per_worker(rep.attempt).items()):
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
        if e.attempt != rep.attempt or e.cat != "task" or not e.args:
            continue
        tid = e.args.get("tid")
        for t in e.args.get("tids", () if tid is None else (tid,)):
            seen_tids[t] = seen_tids.get(t, 0) + 1
    repeated = {t: c for t, c in seen_tids.items() if c > 1}
    if repeated:
        failures.append(
            f"{len(repeated)} tasks executed more than once in attempt "
            f"{rep.attempt} (e.g. {sorted(repeated)[:5]})"
        )
    else:
        checks.append("every task executed at most once per attempt")

    # Balance sanity: overall can never exceed the marginal statistics.
    if rep.grid is not None and rep.work.sum() > 0:
        margins = [rep.row_balance, rep.column_balance]
        if rep.diagonal_balance is not None:
            margins.append(rep.diagonal_balance)
        if rep.work_balance > min(margins) + 1e-12:
            failures.append(
                f"overall balance {rep.work_balance:.6f} exceeds a "
                f"marginal balance (min {min(margins):.6f})"
            )
        else:
            checks.append("overall <= row/column/diagonal balance")

    # ------------------------------------------------------------------
    # Against the measured RuntimeMetrics (exact on fault-free runs).
    # ------------------------------------------------------------------
    if metrics is not None:
        workers = sorted(metrics.workers, key=lambda w: w.rank)
        for w in workers:
            r = w.rank
            for label, got, want in (
                ("busy_s", rep.busy_s[r], w.busy_s),
                ("comm_s", rep.comm_s[r], w.comm_s),
                ("idle_s", rep.idle_s[r], w.idle_s),
            ):
                if got != want:
                    failures.append(
                        f"worker {r}: replayed {label} {got!r} != "
                        f"metrics {want!r}"
                    )
            if rep.tasks[r] != w.tasks_executed:
                failures.append(
                    f"worker {r}: replayed {int(rep.tasks[r])} tasks, "
                    f"metrics say {w.tasks_executed}"
                )
            if rep.ops[r] != w.ops_executed:
                failures.append(
                    f"worker {r}: replayed {int(rep.ops[r])} ops, "
                    f"metrics say {w.ops_executed}"
                )
            if rep.work[r] != w.work_executed:
                failures.append(
                    f"worker {r}: replayed work {int(rep.work[r])} != "
                    f"metrics {w.work_executed}"
                )
            if rep.task_counts[r] != w.task_counts:
                failures.append(
                    f"worker {r}: replayed task kinds "
                    f"{rep.task_counts[r]} != metrics {w.task_counts}"
                )
            if (rep.messages_sent[r] != w.messages_sent
                    or rep.bytes_sent[r] != w.bytes_sent):
                failures.append(
                    f"worker {r}: replayed sends "
                    f"{int(rep.messages_sent[r])}/"
                    f"{int(rep.bytes_sent[r])}B != metrics "
                    f"{w.messages_sent}/{w.bytes_sent}B"
                )
            if (rep.messages_received[r] != w.messages_received
                    or rep.bytes_received[r] != w.bytes_received):
                failures.append(
                    f"worker {r}: replayed recvs "
                    f"{int(rep.messages_received[r])}/"
                    f"{int(rep.bytes_received[r])}B != metrics "
                    f"{w.messages_received}/{w.bytes_received}B"
                )
            # Transported bytes reconcile too — but only when the
            # metrics carry the split (older serialized metrics
            # predate it and report zero).
            wsent = getattr(w, "wire_bytes_sent", 0)
            wrecv = getattr(w, "wire_bytes_received", 0)
            if (wsent or wrecv) and (
                rep.wire_bytes_sent[r] != wsent
                or rep.wire_bytes_received[r] != wrecv
            ):
                failures.append(
                    f"worker {r}: replayed wire bytes "
                    f"{int(rep.wire_bytes_sent[r])}/"
                    f"{int(rep.wire_bytes_received[r])} != metrics "
                    f"{wsent}/{wrecv}"
                )
            # Migration accounting reconciles exactly: the thief's
            # stolen spans and the victims they name must match both
            # sides' steal tallies task for task, work unit for work
            # unit.
            # The solve plane reconciles exactly too: replayed
            # busy/comm/idle seconds bit-equal the worker's own
            # timeline sums, and the solve ledger integer-equals the
            # link counters.
            for label, got, want in (
                ("solve_busy_s", rep.solve_busy_s[r],
                 getattr(w, "solve_busy_s", 0.0)),
                ("solve_comm_s", rep.solve_comm_s[r],
                 getattr(w, "solve_comm_s", 0.0)),
                ("solve_idle_s", rep.solve_idle_s[r],
                 getattr(w, "solve_idle_s", 0.0)),
            ):
                if got != want:
                    failures.append(
                        f"worker {r}: replayed {label} {got!r} != "
                        f"metrics {want!r}"
                    )
            for label, got, want in (
                ("solve tasks", rep.solve_tasks[r],
                 getattr(w, "solve_tasks_executed", 0)),
                ("solve work", rep.solve_work[r],
                 getattr(w, "solve_work_executed", 0)),
                ("solve messages sent", rep.solve_messages_sent[r],
                 getattr(w, "solve_messages_sent", 0)),
                ("solve bytes sent", rep.solve_bytes_sent[r],
                 getattr(w, "solve_bytes_sent", 0)),
                ("solve messages received",
                 rep.solve_messages_received[r],
                 getattr(w, "solve_messages_received", 0)),
                ("solve bytes received", rep.solve_bytes_received[r],
                 getattr(w, "solve_bytes_received", 0)),
            ):
                if int(got) != int(want):
                    failures.append(
                        f"worker {r}: replayed {label} {int(got)} "
                        f"!= metrics {int(want)}"
                    )
            sv_counts = getattr(w, "solve_task_counts", None)
            if sv_counts and rep.solve_task_counts[r] != sv_counts:
                failures.append(
                    f"worker {r}: replayed solve task kinds "
                    f"{rep.solve_task_counts[r]} != metrics "
                    f"{sv_counts}"
                )
            for label, got, want in (
                ("steal requests", rep.steal_reqs[r],
                 getattr(w, "steal_reqs_sent", 0)),
                ("steal grants", rep.steal_grants[r],
                 getattr(w, "steal_grants", 0)),
                ("steal denies", rep.steal_denies[r],
                 getattr(w, "steal_denies", 0)),
                ("tasks stolen", rep.migrated_in_tasks[r],
                 getattr(w, "tasks_stolen", 0)),
                ("tasks shipped", rep.migrated_away_tasks[r],
                 getattr(w, "tasks_shipped", 0)),
                ("work stolen", rep.migrated_in_work[r],
                 getattr(w, "work_stolen", 0)),
                ("work shipped", rep.migrated_away_work[r],
                 getattr(w, "work_shipped", 0)),
            ):
                if int(got) != int(want):
                    failures.append(
                        f"worker {r}: replayed {label} {int(got)} "
                        f"!= metrics {int(want)}"
                    )
        if abs(rep.measured_balance - metrics.measured_balance) > tolerance:
            failures.append(
                f"replayed measured balance {rep.measured_balance!r} != "
                f"metrics {metrics.measured_balance!r}"
            )
        if abs(rep.work_balance - metrics.work_balance) > tolerance:
            failures.append(
                f"replayed work balance {rep.work_balance!r} != "
                f"metrics {metrics.work_balance!r}"
            )
        if not any("metrics" in f or "worker" in f for f in failures):
            checks.append("replay reconciles with RuntimeMetrics")

    # ------------------------------------------------------------------
    # Against the static models.
    # ------------------------------------------------------------------
    if tg is not None and owners is not None:
        owners = np.asarray(owners)
        wm = tg.workmodel
        work_pred = np.bincount(
            owners, weights=wm.work, minlength=rep.nprocs
        ).astype(np.int64)
        # Under work stealing a worker's *executed* work legitimately
        # differs from its owner share; the migration-adjusted identity
        # (executed - stolen in + shipped away) must still hold exactly.
        work_adj = rep.owner_work
        if not np.array_equal(work_adj, work_pred):
            failures.append(
                "replayed per-worker work (migration-adjusted) differs "
                "from the WorkModel share by up to "
                f"{np.abs(work_adj - work_pred).max()}"
            )
        elif rep.migrated:
            checks.append(
                "migration-adjusted per-worker work equals the "
                "WorkModel share exactly"
            )
        else:
            checks.append("per-worker work equals the WorkModel share")
        if rep.solved:
            # The solve predictor reconciles exactly: the number of
            # right-hand sides is recorded in the trace metadata, and
            # solve frames are fully inline, so logical == wire bytes.
            nrhs = int(trace.meta.get("nrhs", 1)) or 1
            sv_pred = solve_communication_volume(tg, owners, nrhs=nrhs)
            sv_sent = int(rep.solve_messages_sent.sum())
            sv_recv = int(rep.solve_messages_received.sum())
            sv_bytes = int(rep.solve_bytes_sent.sum())
            sv_rbytes = int(rep.solve_bytes_received.sum())
            if sv_sent != sv_pred.messages or sv_recv != sv_pred.messages:
                failures.append(
                    f"replayed solve messages {sv_sent} sent / "
                    f"{sv_recv} received, predictor says "
                    f"{sv_pred.messages}"
                )
            elif sv_bytes != sv_pred.bytes or sv_rbytes != sv_pred.bytes:
                failures.append(
                    f"replayed solve bytes {sv_bytes} sent / "
                    f"{sv_rbytes} received, predictor says "
                    f"{sv_pred.bytes}"
                )
            else:
                checks.append(
                    "solve messages/bytes equal solve_communication_volume"
                )
        comm_pred = communication_volume(tg, owners)
        if int(rep.messages_sent.sum()) != comm_pred.messages:
            failures.append(
                f"replayed {int(rep.messages_sent.sum())} messages, "
                f"comm_volume predicted {comm_pred.messages}"
            )
        elif int(rep.bytes_sent.sum()) != comm_pred.bytes:
            failures.append(
                f"replayed {int(rep.bytes_sent.sum())} bytes, "
                f"comm_volume predicted {comm_pred.bytes}"
            )
        else:
            checks.append("message counts/bytes equal comm_volume")
        bal_pred = overall_balance_from_owners(wm, owners, rep.nprocs)
        # The owner-share balance prediction applies to the realized work
        # only when no work migrated; under stealing the adjusted work
        # identity above already pins every owner share exactly, and the
        # realized balance is reported rather than asserted.
        if rep.migrated:
            adj_bal = _balance(work_adj.astype(float))
            if abs(adj_bal - bal_pred) > tolerance:
                failures.append(
                    f"migration-adjusted balance {adj_bal:.12f} != "
                    f"WorkModel prediction {bal_pred:.12f}"
                )
            else:
                checks.append(
                    "owner-share balance matches the WorkModel under "
                    "migration"
                )
        elif abs(rep.work_balance - bal_pred) > tolerance:
            failures.append(
                f"replayed overall balance {rep.work_balance:.12f} != "
                f"WorkModel prediction {bal_pred:.12f}"
            )
        else:
            checks.append("overall balance matches the WorkModel to 1e-9")

    report = TraceValidationReport(
        replay=rep, checks=checks, failures=failures
    )
    if strict and failures:
        raise TraceValidationError(report.summary())
    return report
