"""Seeded load generator for the factorization service.

Builds a deterministic job schedule — K distinct sparsity patterns, a
configurable fraction of pattern-repeat jobs, fresh SPD values per job —
and drives it at the service either *closed-loop* (C worker lanes, each
submits the next job the moment its previous one finishes) or
*open-loop* (Poisson arrivals at a target rate, regardless of
completions — the shape that exposes queueing and admission behavior).

Repeat jobs are submitted as ``(pattern_id, values)`` once the pattern's
handle is known (the fastest warm path); until then they fall back to a
full-matrix submit, which still hits the cache by digest. The report
compares cold vs warm per-job setup time — repeated-pattern traffic
skipping symbolic analysis and worker spawn is the whole point of the
service, and the CI smoke job asserts it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service.jobs import ServiceError


@dataclass
class LoadgenConfig:
    """Deterministic description of one load run."""

    jobs: int = 20
    #: Distinct sparsity patterns in the mix.
    patterns: int = 3
    #: Fraction of jobs that reuse an already-introduced pattern.
    repeat_ratio: float = 0.6
    #: ``"closed"`` (C lanes, submit-on-completion) or ``"open"``
    #: (Poisson arrivals at ``rate`` jobs/s).
    mode: str = "closed"
    rate: float = 20.0
    concurrency: int = 2
    seed: int = 0
    #: Problem family: ``"grid"`` (2-D k×k grids of growing k) or
    #: ``"random"`` (random SPD patterns of growing n).
    problem: str = "grid"
    #: Base problem size (grid side / matrix dimension).
    n: int = 10
    #: Submit repeats as (pattern_id, values) when the handle is known.
    values_only: bool = True
    timeout: float = 120.0
    #: Per-job deadline forwarded to the service (None = unbounded).
    deadline_s: float | None = None
    #: Client-side retries of transient typed errors (0 disables; socket
    #: mode only — in-process callers talk to the service directly).
    retries: int = 0
    #: SIGKILL a pool worker when this many jobs have been submitted
    #: (-1 disables; needs ``service=`` passed to :func:`run_loadgen`).
    kill_worker_at: int = -1
    #: Which rank :attr:`kill_worker_at` kills.
    kill_rank: int = 0


@dataclass
class _JobSpec:
    index: int
    pattern: int
    #: True when the schedule marks this job a repeat of a seen pattern.
    repeat: bool
    diag_shift: float


def build_matrices(cfg: LoadgenConfig) -> list:
    """The K base matrices (distinct patterns), deterministic in cfg."""
    from repro.matrices import grid2d_matrix, random_spd_sparse

    mats = []
    for i in range(cfg.patterns):
        if cfg.problem == "grid":
            mats.append(grid2d_matrix(cfg.n + i).A.tocsc())
        elif cfg.problem == "random":
            mats.append(
                random_spd_sparse(
                    cfg.n + 17 * i, density=0.05, seed=cfg.seed + i
                ).tocsc()
            )
        else:
            raise KeyError(f"unknown problem family {cfg.problem!r}")
    return mats


def build_schedule(cfg: LoadgenConfig) -> list[_JobSpec]:
    """The deterministic job sequence for ``cfg`` (same seed → same
    admit/reject decisions downstream)."""
    rng = np.random.default_rng(cfg.seed)
    schedule: list[_JobSpec] = []
    introduced = 0
    for i in range(cfg.jobs):
        repeat = (
            introduced > 0
            and (introduced >= cfg.patterns
                 or rng.random() < cfg.repeat_ratio)
        )
        if repeat:
            pattern = int(rng.integers(introduced))
        else:
            pattern = introduced
            introduced += 1
        schedule.append(
            _JobSpec(
                index=i,
                pattern=pattern,
                repeat=repeat,
                diag_shift=float(rng.uniform(0.1, 2.0)),
            )
        )
    return schedule


def fresh_values(A, shift: float):
    """New SPD values on A's pattern: the diagonal shifted by ``shift``
    (A SPD ⇒ A + shift·I SPD). Returns a full matrix copy."""
    M = A.copy()
    M.setdiag(M.diagonal() + shift)
    return M.tocsc()


@dataclass
class LoadgenReport:
    """Everything one run measured (JSON-safe via :meth:`to_dict`)."""

    config: LoadgenConfig
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0
    server_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> list:
        return [o for o in self.outcomes if o["status"] == "ok"]

    def to_dict(self) -> dict:
        from repro.service.metrics import _pct

        ok = self.ok
        hits = [o for o in ok if o["cache"] == "hit"]
        misses = [o for o in ok if o["cache"] == "miss"]
        rejected = [o for o in self.outcomes if o["status"] == "rejected"]
        expired = [o for o in self.outcomes if o["status"] == "expired"]
        failed = [
            o for o in self.outcomes
            if o["status"] not in ("ok", "rejected", "expired")
        ]
        return {
            "config": dict(self.config.__dict__),
            "wall_s": self.wall_s,
            "throughput_jobs_s": (
                len(ok) / self.wall_s if self.wall_s > 0 else 0.0
            ),
            "jobs": {
                "ok": len(ok),
                "rejected": len(rejected),
                "expired": len(expired),
                "failed": len(failed),
            },
            "resilience": {
                "retries": sum(o.get("retries", 0) for o in self.outcomes),
                "recovered": len(
                    [o for o in ok if o.get("outcome") == "recovered"]
                ),
                "degraded": len(
                    [o for o in ok
                     if o.get("outcome") == "degraded_sequential"]
                ),
            },
            "cache": {"hit": len(hits), "miss": len(misses)},
            "latency_s": _pct([o["latency_s"] for o in ok]),
            "setup_s": {
                "cold": _pct([o["setup_s"] for o in misses]),
                "warm": _pct([o["setup_s"] for o in hits]),
            },
            "server": self.server_stats,
            "outcomes": self.outcomes,
        }

    def render(self) -> str:
        from repro.service.metrics import PERCENTILES

        d = self.to_dict()
        r = d["resilience"]
        lines = [
            f"{d['jobs']['ok']} ok, {d['jobs']['rejected']} rejected, "
            f"{d['jobs']['expired']} expired, "
            f"{d['jobs']['failed']} failed in {d['wall_s']:.2f}s "
            f"({d['throughput_jobs_s']:.1f} jobs/s)",
            f"resilience: {r['retries']} client retries, "
            f"{r['recovered']} recovered, "
            f"{r['degraded']} degraded-sequential",
            f"cache: {d['cache']['hit']} hits / "
            f"{d['cache']['miss']} misses",
            "latency "
            + " ".join(
                f"p{p}={d['latency_s'][f'p{p}'] * 1e3:.1f}ms"
                for p in PERCENTILES
            ),
            f"setup cold={d['setup_s']['cold']['mean'] * 1e3:.1f}ms "
            f"warm={d['setup_s']['warm']['mean'] * 1e3:.1f}ms "
            "(warm jobs skip symbolic analysis + planning)",
        ]
        return "\n".join(lines)


class _Runner:
    """Shared state for one load run (thread-safe)."""

    def __init__(self, cfg: LoadgenConfig, client_factory, service=None):
        self.cfg = cfg
        self.client_factory = client_factory
        #: In-process service, when the caller has one — enables the
        #: ``kill_worker_at`` chaos hook.
        self.service = service
        self.matrices = build_matrices(cfg)
        self.schedule = build_schedule(cfg)
        self.lock = threading.Lock()
        #: pattern index -> service pattern_id (learned from results).
        self.handles: dict[int, str] = {}
        self.outcomes: list[dict] = [None] * len(self.schedule)
        self.submitted = 0
        self.killed = False

    def _maybe_kill_worker(self) -> None:
        """SIGKILL the configured pool rank once ``kill_worker_at`` jobs
        have been submitted — the real mid-run worker-death chaos case."""
        cfg = self.cfg
        if (
            cfg.kill_worker_at < 0
            or self.service is None
            or self.killed
            or self.submitted < cfg.kill_worker_at
        ):
            return
        import os
        import signal

        self.killed = True
        procs = self.service.pool._procs
        if procs and 0 <= cfg.kill_rank < len(procs):
            proc = procs[cfg.kill_rank]
            if proc.is_alive() and proc.pid:
                os.kill(proc.pid, signal.SIGKILL)

    def run_one(self, client, spec: _JobSpec) -> None:
        M = fresh_values(self.matrices[spec.pattern], spec.diag_shift)
        with self.lock:
            handle = self.handles.get(spec.pattern)
            self.submitted += 1
            self._maybe_kill_worker()
        use_values = (
            self.cfg.values_only and spec.repeat and handle is not None
        )
        t0 = time.monotonic()
        outcome = {
            "index": spec.index,
            "pattern": spec.pattern,
            "scheduled_repeat": spec.repeat,
            "values_only": use_values,
            "status": "ok",
            "cache": "",
            "outcome": "",
            "retries": 0,
            "latency_s": 0.0,
            "setup_s": 0.0,
        }
        retries_before = getattr(client, "retry_count", 0)
        kw = dict(
            timeout=self.cfg.timeout, deadline_s=self.cfg.deadline_s
        )
        try:
            if use_values:
                res = client.factor(
                    pattern_id=handle, values=M.data, **kw
                )
            else:
                res = client.factor(A=M, **kw)
        except ServiceError as exc:
            outcome["status"] = (
                "rejected" if exc.kind in ("rejected", "closed")
                else "expired" if exc.kind == "deadline"
                else "failed"
            )
            outcome["error"] = str(exc)
        else:
            outcome["cache"] = res.cache
            if res.record:
                outcome["setup_s"] = res.record.get("setup_s", 0.0)
                outcome["outcome"] = res.record.get("outcome", "")
                outcome["queue_wait_s"] = res.record.get(
                    "queue_wait_s", 0.0
                )
            with self.lock:
                self.handles.setdefault(spec.pattern, res.pattern_id)
        outcome["retries"] = getattr(client, "retry_count", 0) - retries_before
        outcome["latency_s"] = time.monotonic() - t0
        self.outcomes[spec.index] = outcome


def run_loadgen(
    client_factory, cfg: LoadgenConfig, service=None
) -> LoadgenReport:
    """Drive one load run; ``client_factory()`` makes one client per
    concurrent lane (a TCP connection, or an in-process wrapper).
    ``service`` (the in-process :class:`FactorService`, when the caller
    owns one) enables the ``kill_worker_at`` fault hook."""
    runner = _Runner(cfg, client_factory, service=service)
    t_start = time.monotonic()
    if cfg.mode == "closed":
        _run_closed(runner)
    elif cfg.mode == "open":
        _run_open(runner)
    else:
        raise KeyError(f"unknown loadgen mode {cfg.mode!r}")
    report = LoadgenReport(
        config=cfg,
        outcomes=[o for o in runner.outcomes if o is not None],
        wall_s=time.monotonic() - t_start,
    )
    try:
        probe = client_factory()
        report.server_stats = probe.stats()
        if hasattr(probe, "close"):
            probe.close()
    except Exception:  # noqa: BLE001 - stats are best-effort
        pass
    return report


def _run_closed(runner: _Runner) -> None:
    """C lanes, each submitting its next job on completion."""
    it = iter(runner.schedule)
    it_lock = threading.Lock()

    def lane() -> None:
        client = runner.client_factory()
        try:
            while True:
                with it_lock:
                    spec = next(it, None)
                if spec is None:
                    return
                runner.run_one(client, spec)
        finally:
            if hasattr(client, "close"):
                client.close()

    lanes = [
        threading.Thread(target=lane, name=f"loadgen-{i}", daemon=True)
        for i in range(max(1, runner.cfg.concurrency))
    ]
    for t in lanes:
        t.start()
    for t in lanes:
        t.join()


def _run_open(runner: _Runner) -> None:
    """Poisson arrivals at ``cfg.rate``; one thread per in-flight job."""
    rng = np.random.default_rng(runner.cfg.seed + 1)
    gaps = rng.exponential(
        1.0 / max(runner.cfg.rate, 1e-6), size=len(runner.schedule)
    )
    threads = []
    t0 = time.monotonic()
    due = 0.0
    for spec, gap in zip(runner.schedule, gaps):
        due += gap
        delay = t0 + due - time.monotonic()
        if delay > 0:
            time.sleep(delay)

        def fire(spec=spec) -> None:
            client = runner.client_factory()
            try:
                runner.run_one(client, spec)
            finally:
                if hasattr(client, "close"):
                    client.close()

        t = threading.Thread(
            target=fire, name=f"loadgen-open-{spec.index}", daemon=True
        )
        t.start()
        threads.append(t)
    for t in threads:
        t.join(runner.cfg.timeout)
