"""Per-job service metrics: queue wait, cache outcome,
setup/run split, end-to-end latency percentiles.

Each job that passes through :class:`~repro.service.service.FactorService`
leaves one :class:`JobRecord`; :class:`ServiceMetrics` aggregates them
into the summary ``stats()`` returns and ``python -m repro serve``
prints on exit. The per-run parallel profile still lands in the existing
:class:`~repro.runtime.metrics.RuntimeMetrics` (one per job, with the
service context tucked into its ``extra`` field) — this module only adds
the service-level view.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

#: Tail-latency percentiles reported everywhere.
PERCENTILES = (50, 95, 99)


@dataclass
class JobRecord:
    """One job's trip through the service."""

    job_id: str
    pattern_id: str = ""
    #: ``"hit"`` / ``"miss"`` (empty for jobs that never reached the cache).
    cache: str = ""
    #: ``"ok"`` or ``"failed"``.
    status: str = "ok"
    #: How the job survived: ``"clean"`` (first parallel attempt),
    #: ``"recovered"`` (re-run after a failed attempt), or
    #: ``"degraded_sequential"`` (per-job sequential fallback). Tags from
    #: :mod:`repro.runtime.recovery`.
    outcome: str = "clean"
    #: Parallel attempts consumed (1 = clean; fallback adds none).
    attempts: int = 1
    #: Seconds spent in the admission queue before dispatch.
    queue_wait_s: float = 0.0
    #: Cold-path setup: symbolic analysis + owner planning + arena
    #: creation. ~0 on a cache hit — that drop *is* the service's point.
    setup_s: float = 0.0
    #: Parallel factorization wall time (fan-out round).
    run_s: float = 0.0
    #: Driver-side factor assembly (+ optional bitwise validation).
    assemble_s: float = 0.0
    #: Submit-to-completion, as the client experiences it.
    e2e_s: float = 0.0
    #: Jobs in this job's fan-out round: one job is in flight at a time
    #: (the field is kept for readers of earlier reports).
    batch_size: int = 1
    error: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _pct(values: list[float]) -> dict:
    if not values:
        return {f"p{p}": 0.0 for p in PERCENTILES} | {"mean": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=float)
    out = {f"p{p}": float(np.percentile(arr, p)) for p in PERCENTILES}
    out["mean"] = float(arr.mean())
    out["max"] = float(arr.max())
    return out


@dataclass
class ServiceMetrics:
    """Thread-safe aggregate of every job the service has seen: the one
    count of what was submitted, refused, completed and failed."""

    records: list = field(default_factory=list)
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    #: Jobs that completed via a re-run after a failed attempt.
    recovered: int = 0
    #: Jobs that completed via the per-job sequential fallback.
    degraded: int = 0
    #: Pool-level breakages the dispatcher restarted the crew for.
    pool_restarts: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def count_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def count_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def count_pool_restarts(self, n: int) -> None:
        with self._lock:
            self.pool_restarts += n

    def add(self, record: JobRecord) -> None:
        with self._lock:
            self.records.append(record)
            if record.status == "ok":
                self.completed += 1
                if record.outcome == "recovered":
                    self.recovered += 1
                elif record.outcome == "degraded_sequential":
                    self.degraded += 1
            else:
                self.failed += 1

    # ------------------------------------------------------------------
    def _ok(self) -> list:
        return [r for r in self.records if r.status == "ok"]

    def summary(self) -> dict:
        """Aggregate report (all figures over completed jobs)."""
        with self._lock:
            ok = self._ok()
            hits = [r for r in ok if r.cache == "hit"]
            misses = [r for r in ok if r.cache == "miss"]
            return {
                "jobs": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "rejected": self.rejected,
                },
                "resilience": {
                    "recovered": self.recovered,
                    "degraded": self.degraded,
                    "pool_restarts": self.pool_restarts,
                },
                "queue_wait_s": _pct([r.queue_wait_s for r in ok]),
                "e2e_s": _pct([r.e2e_s for r in ok]),
                "run_s": _pct([r.run_s for r in ok]),
                "setup_s": {
                    "cold": _pct([r.setup_s for r in misses]),
                    "warm": _pct([r.setup_s for r in hits]),
                },
                "cache": {"hit": len(hits), "miss": len(misses)},
            }

    def to_dict(self, include_records: bool = True) -> dict:
        d = self.summary()
        if include_records:
            with self._lock:
                d["records"] = [r.to_dict() for r in self.records]
        return d

    def to_json(self, indent: int | None = 2, include_records=True) -> str:
        return json.dumps(self.to_dict(include_records), indent=indent)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Compact human-readable summary block."""
        s = self.summary()
        j = s["jobs"]
        r = s["resilience"]
        lines = [
            f"jobs: {j['completed']} ok / {j['failed']} failed / "
            f"{j['rejected']} rejected "
            f"(of {j['submitted']} submitted)",
            f"resilience: {r['recovered']} recovered / "
            f"{r['degraded']} degraded-sequential / "
            f"{r['pool_restarts']} pool restarts",
            f"cache: {s['cache']['hit']} hits / {s['cache']['miss']} misses",
            "e2e latency: "
            + " ".join(
                f"p{p}={s['e2e_s'][f'p{p}'] * 1e3:.1f}ms"
                for p in PERCENTILES
            ),
            f"queue wait: p50={s['queue_wait_s']['p50'] * 1e3:.1f}ms "
            f"max={s['queue_wait_s']['max'] * 1e3:.1f}ms",
            f"setup: cold mean={s['setup_s']['cold']['mean'] * 1e3:.1f}ms "
            f"warm mean={s['setup_s']['warm']['mean'] * 1e3:.1f}ms",
        ]
        return "\n".join(lines)
