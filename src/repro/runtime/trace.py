"""Structured runtime tracing: per-task and per-message event records.

Each worker carries a :class:`TraceRecorder` — a bounded ring buffer of
``(category, name, t0, t1, args)`` tuples stamped with the shared run
epoch. Recording is strictly opt-in: with tracing off the worker holds
``None`` and the hot path performs a single identity check per candidate
event, no allocation. With tracing on, the trace *is* the timeline —
every ``busy``/``comm``/``idle`` span the metrics layer adds to its totals
appears as exactly one trace event with the same endpoints, in the same
order — so busy/idle/comm time, message counts, and bytes recomputed from the
trace (:mod:`repro.analysis.trace_replay`) reconcile *exactly* with
:class:`~repro.runtime.metrics.RuntimeMetrics` on a fault-free run.

Span categories
---------------
``task``
    One dispatched op: a panel factor ``PFAC(K)`` (its BFAC, if ``bfac``,
    and BDIVs) or a panel update ``PMOD(K,J)`` (its BMODs); args ``tids``
    and ``blocks``, flops and work-model units summed over its tasks.
``send``
    One fan-out of a completed block: args carry the block, the
    *logical* byte size (``bytes`` — what the static predictor charges),
    the *transported* frame size (``wire_bytes`` — 64 for a shm
    ``BLOCK_REF`` descriptor, equal to ``bytes`` inline), and the
    distinct destination ranks (one wire message per destination).
``recv``
    Handling of one incoming BLOCK or BLOCK_REF frame (named
    ``recv(I,J)``, or ``duplicate`` for an idempotently dropped
    repeat); args carry the same ``bytes`` / ``wire_bytes`` split.
``comm``
    Handling of a control frame (``done_recv``, ``nack_recv``) or a
    rejected frame (``frame_rejected``, ``undecodable``).
``idle``
    One blocking wait on the inbox.
``steal``
    Work-stealing protocol handling (``schedule="dynamic"``):
    ``steal_req`` / ``steal_deny_recv`` on the thief, ``steal_grant`` /
    ``steal_deny`` / ``steal_result_recv`` on the victim, and
    ``steal_result`` (execute-and-return bookkeeping) on the thief.
    Buckets into comm time. A *stolen task's execution* is an ordinary
    ``task`` span on the thief whose args carry ``stolen_from`` (the
    owning victim's rank) — replay uses it to reconcile migrated work
    exactly against the static owner shares.

Instant events (category ``mark``, zero duration) record the fault /
recovery protocol: ``crash``, ``slow``, ``nack_sent``, ``retransmit``,
``renegotiate``, ``checkpoint_load``, ``done_sent``, ``abort_sent``,
``abort_recv``.

The engine merges per-worker buffers into a :class:`RunTrace`, which
serializes to a native JSON form, exports Chrome ``trace_event`` JSON
(open in Perfetto or ``chrome://tracing``), and renders an ASCII Gantt
chart (``python -m repro trace``). See ``docs/TRACING.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Span categories, in the order they map onto the metrics timeline.
#: The ``solve_*`` categories mirror the factor-phase ones for the
#: triangular-solve phase (a solve span never lands in a factor bucket).
SPAN_CATEGORIES = ("task", "send", "recv", "comm", "idle", "steal",
                   "solve_task", "solve_send", "solve_recv", "solve_idle")

#: Instant-event category.
MARK = "mark"

#: Timeline bucket each span category reconciles into (see
#: :mod:`repro.analysis.trace_replay`): ``task`` is busy time; ``send``,
#: ``recv``, ``comm`` and ``steal`` are comm time; ``idle`` is idle time.
#: Solve spans reconcile into the dedicated solve buckets.
TIMELINE_BUCKET = {
    "task": "busy",
    "send": "comm",
    "recv": "comm",
    "comm": "comm",
    "steal": "comm",
    "idle": "idle",
    "solve_task": "solve_busy",
    "solve_send": "solve_comm",
    "solve_recv": "solve_comm",
    "solve_idle": "solve_idle",
}

#: Default ring capacity (events per worker). Small runs use a few
#: thousand events; the ring only wraps on pathological workloads.
DEFAULT_CAPACITY = 1 << 18


class TraceRecorder:
    """Bounded ring buffer of trace events inside one worker.

    Events are compact tuples ``(cat, name, t0, t1, args)`` with ``args``
    a small dict or None. When the ring is full the *oldest* events are
    overwritten and ``dropped`` counts the overwritten ones, so a
    runaway run degrades to a suffix trace instead of unbounded memory.
    """

    __slots__ = ("capacity", "events", "dropped", "_head")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = int(capacity)
        self.events: list[tuple] = []
        self.dropped = 0
        self._head = 0  # next overwrite slot once the ring is full

    def _put(self, ev: tuple) -> None:
        if len(self.events) < self.capacity:
            self.events.append(ev)
        else:
            self.events[self._head] = ev
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def span(self, cat: str, name: str, t0: float, t1: float,
             args: dict | None = None) -> None:
        """Record a duration event (mirrors one timeline segment)."""
        self._put((cat, name, t0, t1, args))

    def mark(self, name: str, t: float, args: dict | None = None) -> None:
        """Record an instant (zero-duration) protocol event."""
        self._put((MARK, name, t, t, args))

    def snapshot(self, rank: int) -> "WorkerTrace":
        """Freeze the ring into the shippable per-worker trace (oldest
        event first, even after wrap-around)."""
        if self.dropped:
            events = self.events[self._head:] + self.events[: self._head]
        else:
            events = list(self.events)
        return WorkerTrace(rank=rank, events=events, dropped=self.dropped)


@dataclass
class WorkerTrace:
    """One worker's recorded events, shipped home with its result."""

    rank: int
    events: list[tuple]
    dropped: int = 0


@dataclass(frozen=True)
class TraceEvent:
    """One merged run-trace event."""

    rank: int
    attempt: int
    cat: str
    name: str
    t0: float
    t1: float
    args: dict | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_row(self) -> list:
        return [self.rank, self.attempt, self.cat, self.name,
                self.t0, self.t1, self.args]

    @classmethod
    def from_row(cls, row) -> "TraceEvent":
        rank, attempt, cat, name, t0, t1, args = row
        return cls(int(rank), int(attempt), str(cat), str(name),
                   float(t0), float(t1), args)


@dataclass
class RunTrace:
    """The merged trace of one runtime execution (possibly multi-attempt).

    ``events`` keeps each worker's events in recorded order (grouped by
    attempt, then rank); ``meta`` carries run identity (nprocs, mapping,
    problem, processor grid, start method); ``dropped`` maps
    ``"attempt:rank"`` to the number of ring-overwritten events.
    """

    meta: dict = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    dropped: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_workers(
        cls,
        worker_traces: dict[int, WorkerTrace],
        meta: dict | None = None,
        attempt: int = 0,
    ) -> "RunTrace":
        """Merge per-worker ring snapshots into one run trace."""
        events: list[TraceEvent] = []
        dropped: dict[str, int] = {}
        for rank in sorted(worker_traces):
            wt = worker_traces[rank]
            if wt is None:
                continue
            if wt.dropped:
                dropped[f"{attempt}:{rank}"] = int(wt.dropped)
            for cat, name, t0, t1, args in wt.events:
                events.append(TraceEvent(
                    rank=rank, attempt=attempt, cat=cat, name=name,
                    t0=float(t0), t1=float(t1), args=args,
                ))
        return cls(meta=dict(meta or {}), events=events, dropped=dropped)

    @classmethod
    def concat(cls, traces: list["RunTrace"]) -> "RunTrace":
        """Stitch multi-attempt traces (failed attempts first). Keeps the
        final trace's meta and unions events and drop counts."""
        traces = [t for t in traces if t is not None]
        if not traces:
            return cls()
        out = cls(meta=dict(traces[-1].meta))
        for t in traces:
            out.events.extend(t.events)
            out.dropped.update(t.dropped)
        return out

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        n = self.meta.get("nprocs")
        if n:
            return int(n)
        return 1 + max((e.rank for e in self.events), default=0)

    @property
    def attempts(self) -> list[int]:
        return sorted({e.attempt for e in self.events})

    @property
    def total_dropped(self) -> int:
        return int(sum(self.dropped.values()))

    @property
    def t_end(self) -> float:
        return max((e.t1 for e in self.events), default=0.0)

    @property
    def t_start(self) -> float:
        return min((e.t0 for e in self.events), default=0.0)

    def per_worker(self, attempt: int | None = None) -> dict[int, list[TraceEvent]]:
        """``rank -> events`` in recorded order."""
        out: dict[int, list[TraceEvent]] = {}
        for e in self.events:
            if attempt is not None and e.attempt != attempt:
                continue
            out.setdefault(e.rank, []).append(e)
        return out

    # ------------------------------------------------------------------
    # Native serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "repro-trace",
            "version": 1,
            "meta": self.meta,
            "dropped": self.dropped,
            "events": [e.to_row() for e in self.events],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "RunTrace":
        if d.get("format") != "repro-trace":
            raise ValueError(
                "not a repro trace file (missing format='repro-trace')"
            )
        return cls(
            meta=dict(d.get("meta", {})),
            events=[TraceEvent.from_row(r) for r in d.get("events", [])],
            dropped={str(k): int(v) for k, v in d.get("dropped", {}).items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "RunTrace":
        return cls.from_dict(json.loads(text))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "RunTrace":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Open the dumped file in https://ui.perfetto.dev or
        ``chrome://tracing``. Each attempt becomes one process (pid),
        each worker one thread (tid); span events are complete (``X``)
        events in microseconds, marks are thread-scoped instants.
        """
        out: list[dict] = []
        for attempt in self.attempts or [0]:
            out.append({
                "name": "process_name", "ph": "M", "pid": attempt,
                "args": {"name": f"repro-mp attempt {attempt}"},
            })
            for rank in sorted({e.rank for e in self.events
                                if e.attempt == attempt}):
                out.append({
                    "name": "thread_name", "ph": "M", "pid": attempt,
                    "tid": rank, "args": {"name": f"worker {rank}"},
                })
        for e in self.events:
            ev = {
                "name": e.name,
                "cat": e.cat,
                "ts": e.t0 * 1e6,
                "pid": e.attempt,
                "tid": e.rank,
            }
            if e.args:
                ev["args"] = e.args
            if e.cat == MARK:
                ev["ph"] = "i"
                ev["s"] = "t"
            else:
                ev["ph"] = "X"
                ev["dur"] = (e.t1 - e.t0) * 1e6
            out.append(ev)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta),
        }

    def dump_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    # ------------------------------------------------------------------
    # ASCII Gantt
    # ------------------------------------------------------------------
    def gantt(self, width: int = 72, attempt: int | None = None) -> str:
        """Render per-worker busy/comm/idle lanes over wall-clock time.

        ``#`` busy (task execution), ``~`` comm (send/recv/control),
        ``.`` idle (blocked on the inbox), ``!`` a fault/recovery mark,
        space: outside the worker's recorded lifetime. Priority within a
        bin: mark > busy > comm > idle.
        """
        if attempt is None:
            attempts = self.attempts
            attempt = attempts[-1] if attempts else 0
        lanes = self.per_worker(attempt)
        t1 = max((e.t1 for evs in lanes.values() for e in evs), default=0.0)
        t0 = min((e.t0 for evs in lanes.values() for e in evs), default=0.0)
        span = max(t1 - t0, 1e-9)
        rank_w = max((len(str(r)) for r in lanes), default=1)
        lines = [
            f"attempt {attempt}: {span * 1e3:.1f} ms "
            f"({'#'} busy, {'~'} comm, {'.'} idle, {'!'} fault/recovery)"
        ]
        prio = {MARK: 3, "task": 2, "send": 1, "recv": 1, "comm": 1,
                "steal": 1, "idle": 0, "solve_task": 2, "solve_send": 1,
                "solve_recv": 1, "solve_idle": 0}
        glyph = {MARK: "!", "task": "#", "send": "~", "recv": "~",
                 "comm": "~", "steal": "~", "idle": ".", "solve_task": "#",
                 "solve_send": "~", "solve_recv": "~", "solve_idle": "."}
        for rank in sorted(lanes):
            best = [-1] * width
            chars = [" "] * width
            for e in lanes[rank]:
                lo = int((e.t0 - t0) / span * width)
                hi = int((e.t1 - t0) / span * width)
                lo = min(max(lo, 0), width - 1)
                hi = min(max(hi, lo), width - 1)
                p = prio.get(e.cat, 0)
                g = glyph.get(e.cat, "?")
                for i in range(lo, hi + 1):
                    if p > best[i]:
                        best[i] = p
                        chars[i] = g
            lines.append(f"w{rank:<{rank_w}} |{''.join(chars)}|")
        axis = f"{' ' * (rank_w + 1)} {0.0:<8.1f}"
        axis += " " * max(0, width - len(axis) + rank_w + 3)
        lines.append(axis + f"{span * 1e3:>8.1f} ms")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-paragraph account of what the trace contains."""
        n_task = sum(1 for e in self.events if e.cat == "task")
        n_send = sum(1 for e in self.events if e.cat == "send")
        n_recv = sum(1 for e in self.events
                     if e.cat == "recv" and e.name != "duplicate")
        n_mark = sum(1 for e in self.events if e.cat == MARK)
        parts = [
            f"trace: {len(self.events)} events, "
            f"{self.nprocs} workers, "
            f"{len(self.attempts) or 1} attempt(s), "
            f"{(self.t_end - self.t_start) * 1e3:.1f} ms",
            f"  tasks={n_task} sends={n_send} recvs={n_recv} "
            f"marks={n_mark}",
        ]
        if self.meta:
            keys = ("problem", "mapping", "nprocs", "grid", "start_method")
            kv = [f"{k}={self.meta[k]}" for k in keys if self.meta.get(k)]
            if kv:
                parts.append("  " + " ".join(str(x) for x in kv))
        if self.total_dropped:
            parts.append(
                f"  WARNING: ring overflow dropped {self.total_dropped} "
                "oldest events (raise the trace capacity)"
            )
        return "\n".join(parts)
