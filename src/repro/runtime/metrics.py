"""Per-worker and runtime-wide metrics for the message-passing engine.

Each worker totals its wall-clock seconds ``busy`` (executing block
operations), ``comm`` (serializing, sending, receiving, unpacking frames)
and ``idle`` (blocked waiting for messages) — the per-segment record is
the structured trace, :mod:`repro.runtime.trace` — plus task counts,
per-link traffic, and the work-model units it actually executed. The
aggregate report computes measured load balance the same way the paper's
balance statistic does — ``total / (P * max)`` — so a real run can be laid
directly beside the :mod:`repro.mapping.balance` predictions, dumped as
JSON, or rendered as an ASCII chart via :mod:`repro.util.ascii_chart`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.mapping.balance import overall_balance
from repro.util.ascii_chart import bar_chart

#: Timeline categories. The ``solve_*`` trio mirrors the factor-phase
#: trio for the triangular-solve phase, so a combined factor+solve run
#: keeps the two phases' time separately reconcilable.
CATEGORIES = ("busy", "comm", "idle", "solve_busy", "solve_comm",
              "solve_idle")


def _imbalance(x: np.ndarray) -> float:
    mean = float(x.mean()) if x.size else 0.0
    return float(x.max() / mean) if mean > 0 else 1.0


class TimelineRecorder:
    """Accumulates the seconds spent per category, one span at a time."""

    def __init__(self):
        self.totals = {c: 0.0 for c in CATEGORIES}

    def add(self, category: str, start: float, end: float) -> None:
        if end > start:
            self.totals[category] += end - start


@dataclass
class WorkerMetrics:
    """One worker's measured execution profile."""

    rank: int
    #: Task-graph tasks run here (a panel op counts its member tasks) and
    #: the ops dispatched to run them (a panel op counts once).
    tasks_executed: int = 0
    ops_executed: int = 0
    task_counts: dict[str, int] = field(
        default_factory=lambda: {"BFAC": 0, "BDIV": 0, "BMOD": 0}
    )
    busy_s: float = 0.0
    comm_s: float = 0.0
    idle_s: float = 0.0
    #: A job on this rank: arming the planes (a pattern's first job also
    #: compiles its plans), the event loop, and the gather — packing the
    #: owned blocks as frames (inline) or the CRC pass over them (shm).
    setup_s: float = 0.0
    pump_s: float = 0.0
    gather_s: float = 0.0
    flops_executed: int = 0
    work_executed: int = 0  # work-model units: flops + fixed cost per op
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    #: Transported bytes actually put on / taken off the queues. Equal to
    #: ``bytes_sent``/``bytes_received`` on the inline transport; 64 bytes
    #: per data message (header-only descriptors) on the shm transport.
    #: The ``bytes_*`` counters above stay *logical* — identical across
    #: transports and exactly equal to the static predictor.
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    #: Per-link traffic this worker sent: ``{dst_rank: [messages, bytes]}``.
    links: dict[int, list[int]] = field(default_factory=dict)
    error: str | None = None
    #: Class name of the exception behind ``error`` (the recovery loop
    #: reads it to tell a deterministic failure from a transient one).
    error_type: str | None = None
    aborted: bool = False
    # ------------------------------------------------------------------
    # Control and fault counters. A rejected or repeated frame is not
    # counted: it fails the job (fail-stop).
    # ------------------------------------------------------------------
    #: Control frames (ABORT/DONE) sent / received.
    control_sent: int = 0
    control_received: int = 0
    #: Faults this worker's injector actually fired: ``{class: count}``.
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: Structured trace events recorded / dropped to ring overflow
    #: (zero when tracing is off; see :mod:`repro.runtime.trace`).
    trace_events: int = 0
    trace_dropped: int = 0
    # ------------------------------------------------------------------
    # Work-stealing counters (``schedule="dynamic"``). All stay zero on a
    # static-schedule run. ``tasks_executed``/``work_executed`` above
    # count where tasks *ran* (the thief counts a stolen task), so
    # ``tasks_stolen``/``work_stolen`` minus ``tasks_shipped``/
    # ``work_shipped`` is exactly this worker's deviation from its static
    # owner share — validation reconciles that identity to the integer.
    # ------------------------------------------------------------------
    #: STEAL_REQ frames this worker sent as a thief.
    steal_reqs_sent: int = 0
    #: STEAL_REQ frames answered as a victim, by outcome.
    steal_grants: int = 0
    steal_denies: int = 0
    #: STEAL_DENY frames received as a thief.
    steal_denies_received: int = 0
    #: Tasks executed here but owned elsewhere (thief side).
    tasks_stolen: int = 0
    #: Tasks owned here but executed elsewhere (victim side).
    tasks_shipped: int = 0
    #: Work-model units migrated in / out with those tasks.
    work_stolen: int = 0
    work_shipped: int = 0
    #: Steal-plane traffic (REQ/GRANT/DENY/SHIP/RESULT frame bytes) —
    #: kept out of ``messages_*``/``bytes_*`` so the data ledgers stay
    #: exactly equal to the static communication-volume prediction.
    steal_messages_sent: int = 0
    steal_bytes_sent: int = 0
    steal_messages_received: int = 0
    steal_bytes_received: int = 0
    # ------------------------------------------------------------------
    # Triangular-solve phase counters. All stay zero on a factor-only
    # run. The solve plane has its own ledger (outside ``messages_*``/
    # ``bytes_*``) so the factor-phase counters keep reconciling exactly
    # with the factor predictor, and the solve counters with
    # :func:`repro.analysis.comm_volume.solve_communication_volume`.
    # Solve frames always ship inline, so logical == wire bytes here.
    # ------------------------------------------------------------------
    solve_tasks_executed: int = 0
    solve_task_counts: dict[str, int] = field(
        default_factory=lambda: {"FSOLVE": 0, "FUPD": 0, "BSOLVE": 0,
                                 "BUPD": 0}
    )
    solve_busy_s: float = 0.0
    solve_comm_s: float = 0.0
    solve_idle_s: float = 0.0
    #: Work units executed in the solve phase (see
    #: :func:`repro.numeric.solve.solve_flops` — exact integers).
    solve_work_executed: int = 0
    solve_messages_sent: int = 0
    solve_bytes_sent: int = 0
    solve_messages_received: int = 0
    solve_bytes_received: int = 0

    @property
    def dispatch_s(self) -> float:
        """Dispatch overhead: event-loop time that is neither task, frame
        nor wait — ``pump_s - busy_s - comm_s - idle_s`` (less the solve
        phase's three when the job had one)."""
        return self.pump_s - (
            self.busy_s + self.comm_s + self.idle_s
            + self.solve_busy_s + self.solve_comm_s + self.solve_idle_s
        )

    def to_dict(self) -> dict:
        d = dict(self.__dict__, dispatch_s=self.dispatch_s)
        d["links"] = {str(k): list(v) for k, v in self.links.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WorkerMetrics":
        d = dict(d)
        d["links"] = {int(k): list(v) for k, v in d.get("links", {}).items()}
        d.pop("timeline", None)  # dumps written before the trace replaced it
        d.pop("dispatch_s", None)  # derived
        return cls(**d)


@dataclass
class RuntimeMetrics:
    """Aggregate of one real parallel factorization."""

    nprocs: int
    wall_s: float
    workers: list[WorkerMetrics]
    mapping: str = ""
    problem: str = ""
    #: Which transport moved block payloads: ``"inline"`` or ``"shm"``.
    transport: str = "inline"
    #: Scheduling mode: ``"static"`` (owner-mapped task lists) or
    #: ``"dynamic"`` (ready-queue execution with work stealing).
    schedule: str = "static"
    #: Free-form annotations carried into the JSON dump (e.g. the gather
    #: record, the service layer's per-job context).
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.workers = sorted(self.workers, key=lambda w: w.rank)

    # ------------------------------------------------------------------
    def _per_worker(self, attr: str) -> np.ndarray:
        return np.array([getattr(w, attr) for w in self.workers], dtype=float)

    @property
    def busy(self) -> np.ndarray:
        return self._per_worker("busy_s")

    @property
    def work(self) -> np.ndarray:
        return self._per_worker("work_executed")

    @property
    def messages_total(self) -> int:
        return int(sum(w.messages_sent for w in self.workers))

    @property
    def bytes_total(self) -> int:
        return int(sum(w.bytes_sent for w in self.workers))

    @property
    def wire_bytes_total(self) -> int:
        """Bytes actually transported (== ``bytes_total`` inline; the
        headline savings on the shm transport)."""
        return int(sum(w.wire_bytes_sent for w in self.workers))

    @property
    def tasks_total(self) -> int:
        return int(sum(w.tasks_executed for w in self.workers))

    @property
    def ops_total(self) -> int:
        return int(sum(w.ops_executed for w in self.workers))

    @property
    def steal_reqs_total(self) -> int:
        return int(sum(w.steal_reqs_sent for w in self.workers))

    @property
    def steal_grants_total(self) -> int:
        return int(sum(w.steal_grants for w in self.workers))

    @property
    def steal_denies_total(self) -> int:
        return int(sum(w.steal_denies for w in self.workers))

    @property
    def tasks_stolen_total(self) -> int:
        return int(sum(w.tasks_stolen for w in self.workers))

    @property
    def work_stolen_total(self) -> int:
        return int(sum(w.work_stolen for w in self.workers))

    @property
    def steal_bytes_total(self) -> int:
        return int(sum(w.steal_bytes_sent for w in self.workers))

    @property
    def solve_messages_total(self) -> int:
        return int(sum(w.solve_messages_sent for w in self.workers))

    @property
    def solve_bytes_total(self) -> int:
        return int(sum(w.solve_bytes_sent for w in self.workers))

    @property
    def solve_tasks_total(self) -> int:
        return int(sum(w.solve_tasks_executed for w in self.workers))

    @property
    def solve_work_total(self) -> int:
        return int(sum(w.solve_work_executed for w in self.workers))

    @property
    def idle_total_s(self) -> float:
        """Summed per-worker idle seconds — the quantity dynamic
        scheduling exists to shrink."""
        return float(sum(w.idle_s for w in self.workers))

    @property
    def faults_injected_total(self) -> dict:
        out: dict[str, int] = {}
        for w in self.workers:
            for k, v in w.faults_injected.items():
                out[k] = out.get(k, 0) + int(v)
        return out

    @property
    def owner_work(self) -> np.ndarray:
        """Migration-adjusted work: what each rank's *owned* tasks cost,
        wherever they ran (``work_executed - work_stolen + work_shipped``)
        — the :class:`~repro.blocks.workmodel.WorkModel` owner share."""
        return np.array(
            [w.work_executed - w.work_stolen + w.work_shipped
             for w in self.workers],
            dtype=np.int64,
        )

    @property
    def measured_balance(self) -> float:
        """Balance of measured busy seconds (wall-clock load distribution)."""
        return overall_balance(self.busy)

    @property
    def work_balance(self) -> float:
        """Balance of executed work-model units (deterministic; comparable
        to :func:`repro.mapping.balance.overall_balance_from_owners`)."""
        return overall_balance(self.work)

    @property
    def imbalance(self) -> float:
        """``max busy / mean busy`` — 1.0 is perfect, larger is worse."""
        return _imbalance(self.busy)

    @property
    def work_imbalance(self) -> float:
        return _imbalance(self.work)

    def link_matrix(self) -> np.ndarray:
        """``[src, dst] -> messages`` over the whole run."""
        M = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        for w in self.workers:
            for dst, (msgs, _bytes) in w.links.items():
                M[w.rank, dst] = msgs
        return M

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "nprocs": self.nprocs,
            "wall_s": self.wall_s,
            "mapping": self.mapping,
            "problem": self.problem,
            "transport": self.transport,
            "schedule": self.schedule,
            "measured_balance": self.measured_balance,
            "work_balance": self.work_balance,
            "imbalance": self.imbalance,
            "messages": self.messages_total,
            "bytes": self.bytes_total,
            "wire_bytes": self.wire_bytes_total,
            "tasks": self.tasks_total,
            "ops": self.ops_total,
            "faults_injected": self.faults_injected_total,
            "steals": {
                "requests": self.steal_reqs_total,
                "grants": self.steal_grants_total,
                "denies": self.steal_denies_total,
                "tasks_migrated": self.tasks_stolen_total,
                "work_migrated": self.work_stolen_total,
                "steal_bytes": self.steal_bytes_total,
                "idle_s": self.idle_total_s,
            },
            "solve": {
                "tasks": self.solve_tasks_total,
                "work": self.solve_work_total,
                "messages": self.solve_messages_total,
                "bytes": self.solve_bytes_total,
            },
            "extra": self.extra,
            "workers": [w.to_dict() for w in self.workers],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "RuntimeMetrics":
        return cls(
            nprocs=int(d["nprocs"]),
            wall_s=float(d["wall_s"]),
            workers=[WorkerMetrics.from_dict(w) for w in d["workers"]],
            mapping=str(d.get("mapping", "")),
            problem=str(d.get("problem", "")),
            transport=str(d.get("transport", "inline")),
            schedule=str(d.get("schedule", "static")),
            extra=dict(d.get("extra", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RuntimeMetrics":
        return cls.from_dict(json.loads(text))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    # ------------------------------------------------------------------
    def render(self, width: int = 40) -> str:
        """ASCII busy/comm/idle breakdown, one bar group per worker."""
        labels = [f"w{w.rank}" for w in self.workers]
        series = {
            "busy": [w.busy_s for w in self.workers],
            "comm": [w.comm_s for w in self.workers],
            "idle": [w.idle_s for w in self.workers],
            "dispatch": [w.dispatch_s for w in self.workers],
        }
        chart = bar_chart(labels, series, width=width)
        summary = (
            f"P={self.nprocs} wall={self.wall_s * 1e3:.1f} ms "
            f"balance={self.measured_balance:.3f} "
            f"(work {self.work_balance:.3f}) "
            f"msgs={self.messages_total} ({self.bytes_total / 1e6:.2f} MB) "
            f"tasks={self.tasks_total} in {self.ops_total} ops"
        )
        if self.wire_bytes_total != self.bytes_total:
            summary += (
                f" wire={self.wire_bytes_total / 1e6:.2f} MB "
                f"[{self.transport}]"
            )
        if self.schedule == "dynamic":
            summary += (
                f"\nschedule=dynamic steals={self.tasks_stolen_total}"
                f"/{self.steal_reqs_total} reqs "
                f"migrated_work={self.work_stolen_total} "
                f"idle={self.idle_total_s * 1e3:.1f} ms"
            )
        for name in ("setup_s", "pump_s", "gather_s"):
            worst = max((getattr(w, name) for w in self.workers), default=0.0)
            summary += f" {name[:-2]}<={worst * 1e3:.1f}ms"
        gather = self.extra.get("gather")
        if gather:
            summary += (
                f"\ngather={gather['mode']} {gather['blocks']} blocks "
                f"{gather['bytes'] / 1e6:.2f} MB "
                f"copy={gather['copy_s'] * 1e3:.1f}ms "
                f"check={gather['check_s'] * 1e3:.1f}ms"
            )
        return chart + "\n" + summary
