"""The :class:`FactorService` driver: warm pool + pattern cache +
admission queue + batched dispatch.

Lifecycle of a job::

    submit(A)                admission queue          dispatcher thread
    ───────────▶ JobQueue ──────────────────▶ get_batch() ─┐
                  (reject/block/shed)                      │ resolve
                                                           │ pattern
                                                           ▼
                              WorkerPool.run_batch([PoolJob, ...])
                                                           │
                  JobHandle ◀── assemble + validate ◀──────┘

Cold jobs (pattern never seen) pay symbolic analysis, owner planning,
and arena creation once; the resulting :class:`PatternEntry` is cached
and its context shipped to the resident workers with the first job.
Warm jobs ship a values array. Either way the numeric result is bitwise
identical to the sequential :class:`~repro.numeric.BlockCholesky` —
``validate=True`` asserts that on every job.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import uuid
from collections import OrderedDict

import numpy as np
from scipy import sparse

from repro.config import RunConfig
from repro.runtime.arena import BlockArena, resolve_transport
from repro.runtime.engine import FanoutError, outcome_result, plan_owners
from repro.runtime.pool import PoolJob, WorkerPool
from repro.runtime.recovery import (
    OUTCOME_CLEAN,
    OUTCOME_DEGRADED,
    RecoveryJob,
    RecoveryPolicy,
    last_resort,
    recover,
    settle,
)
from repro.service.admission import JobQueue
from repro.service.cache import PatternCache, PatternEntry, pattern_digest
from repro.service.jobs import (
    AdmissionRejected,
    DeadlineExceeded,
    FactorJob,
    JobFailed,
    JobHandle,
    JobResult,
    ServiceClosed,
    ServiceUnavailable,
    SolveResult,
    UnknownPatternError,
    ValidationFailed,
)
from repro.service.metrics import JobRecord, ServiceMetrics
from repro.service.resilience import CircuitBreaker

log = logging.getLogger("repro.service")

#: Errors the dispatcher turns into per-job failures rather than letting
#: them crash the batch (``ValidationFailed`` subclasses ``JobFailed``).
_PER_JOB_ERRORS = (UnknownPatternError, JobFailed)


class _Queued:
    """A job waiting for dispatch (handle + admission timestamp)."""

    __slots__ = ("job", "handle", "enqueued_at")

    def __init__(self, job: FactorJob, handle: JobHandle):
        self.job = job
        self.handle = handle
        self.enqueued_at = time.monotonic()


class _Prep(RecoveryJob):
    """A batch job after pattern resolution, through its attempts: the
    recovery loop's job (``A`` is the permuted matrix, the plan is the
    pattern entry) plus where its result goes."""

    def __init__(self, queued, entry, record, A_perm, fault_plan=None):
        super().__init__(entry, A_perm, queued.job.job_id)
        self.queued = queued
        self.record = record
        self.fault_plan = fault_plan


class FactorService:
    """A long-lived factorization service over the persistent pool.

    The knobs shared with the other layers are one
    :class:`~repro.config.RunConfig` (``config`` and/or field overrides by
    keyword, ``nprocs`` defaulting to 2 here; table in
    ``docs/ARCHITECTURE.md``); a bad value raises ``ValueError`` before a
    pool exists. The service-only knobs stay keywords: the admission
    policy (``admission`` + ``queue_capacity``), the batching window
    (``max_batch`` + ``batch_wait_s``), the bound on one pool batch
    (``batch_timeout_s``), the cache and dedup bounds, the per-job
    attempts / deadline / circuit breaker, ``validate`` (bitwise-check
    every factor against the sequential baseline before releasing it)
    and the chaos hooks ``fault_plan`` / ``fault_jobs``.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        queue_capacity: int = 64,
        admission: str = "block",
        max_batch: int = 8,
        batch_wait_s: float = 0.002,
        cache_capacity: int = 8,
        validate: bool = False,
        batch_timeout_s: float = 300.0,
        default_deadline_s: float | None = None,
        max_job_attempts: int = 2,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        dedup_capacity: int = 64,
        fault_plan=None,
        fault_jobs: tuple = (),
        **overrides,
    ):
        self.config = RunConfig.of(config, overrides, nprocs=2)
        #: The configured pool width (``pool.nprocs`` shrinks after a heal).
        self.nprocs = self.config.nprocs
        #: The transport ``config.transport`` resolves to on this platform.
        self.transport = resolve_transport(self.config.transport, self.nprocs)
        self.validate = validate
        self.max_batch = max(1, int(max_batch))
        self.batch_wait_s = float(batch_wait_s)
        self.batch_timeout_s = float(batch_timeout_s)
        self.pool = WorkerPool(self.nprocs)
        self.cache = PatternCache(cache_capacity)
        self.queue = JobQueue(queue_capacity, admission)
        self.metrics = ServiceMetrics()
        self.default_deadline_s = default_deadline_s
        self.max_job_attempts = max(1, int(max_job_attempts))
        #: A resident crew keeps a rank that merely raised (only its job
        #: is retried); dead processes are what a heal sheds.
        self.policy = RecoveryPolicy(
            attempts=self.max_job_attempts, raising_rank_is_casualty=False
        )
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown_s)
        #: Deterministic chaos injection: ``fault_plan`` is attached to
        #: the jobs whose dispatch index (0-based, in admission order) is
        #: in ``fault_jobs`` — first parallel attempt only, so injected
        #: faults are transient by construction.
        self.fault_plan = fault_plan
        self.fault_jobs = frozenset(fault_jobs)
        self._dispatched = 0
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._dispatcher: threading.Thread | None = None
        #: Entries whose arenas must be released after the current batch
        #: (cache evictions are deferred past in-flight jobs).
        self._pending_evictions: list[PatternEntry] = []
        # Job-id dedup: outstanding handles (submitted, not finished) and
        # a bounded map of completed results, so an idempotent client
        # retry of the same job_id never runs the job twice.
        self._dedup_lock = threading.Lock()
        self._outstanding: dict[str, JobHandle] = {}
        self._completed: OrderedDict[str, JobResult] = OrderedDict()
        self._completed_solves: OrderedDict[str, SolveResult] = OrderedDict()
        self._dedup_capacity = max(0, int(dedup_capacity))
        #: Serializes pool dispatch between the dispatcher thread (factor
        #: batches) and client threads (:meth:`solve`): a solve job must
        #: never interleave with a factor batch that could overwrite the
        #: resident factor's arena slots mid-sweep.
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FactorService":
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise ServiceClosed("service is shut down")
            self.pool.start()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-service-dispatch",
                daemon=True,
            )
            self._dispatcher.start()
            self._started = True
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Graceful drain, bounded by ``timeout``: stop admission, let
        the dispatcher finish in-flight and queued batches, then fail
        every handle still outstanding with a typed
        :class:`ServiceClosed` — a caller blocked in ``result()`` always
        gets an answer, never a hang. The pool and every arena are
        released. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
        drained = (
            self._dispatcher is None or not self._dispatcher.is_alive()
        )
        for queued in self.queue.drain():
            self._finish_rejected(
                queued, ServiceClosed("service is shut down"), "failed"
            )
        # Stragglers the drain did not reach — jobs taken into a batch
        # that never completed (hung pool, stuck dispatcher). Without
        # this, their callers block in result() forever.
        with self._dedup_lock:
            stragglers = list(self._outstanding.values())
            self._outstanding.clear()
        for handle in stragglers:
            if not handle.done():
                why = (
                    "service is shut down"
                    if drained
                    else f"shutdown drain timed out after {timeout:.0f}s"
                )
                self.metrics.add(JobRecord(
                    job_id=handle.job_id, status="failed", error=why,
                ))
                handle.set_exception(ServiceClosed(why))
        self.pool.close()
        self._release_evictions()
        self.cache.close()

    def __enter__(self) -> "FactorService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(
        self,
        A: sparse.spmatrix | None = None,
        pattern_id: str | None = None,
        values: np.ndarray | None = None,
        job_id: str | None = None,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> JobHandle:
        """Queue one factorization; returns immediately with a handle.

        ``timeout`` bounds the backpressure wait under the ``"block"``
        admission policy. Raises :class:`AdmissionRejected` /
        :class:`ServiceClosed` at submit time — a full queue is a typed
        error, never a hang. ``deadline_s`` is the job's end-to-end
        budget: past it, the job fails with a typed
        :class:`DeadlineExceeded` wherever it is (queued, mid-batch, or
        waited on), without disturbing its batch.

        Submitting an explicit ``job_id`` is idempotent: a resubmission
        while the job is in flight returns the same handle; one after
        completion returns the cached result — so client retries after a
        broken connection never run a job twice.
        """
        if not self._started:
            self.start()
        job = FactorJob(
            job_id=job_id or uuid.uuid4().hex[:12],
            A=A,
            pattern_id=pattern_id,
            values=values,
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.default_deadline_s
            ),
        )
        handle = JobHandle(job)
        with self._dedup_lock:
            existing = self._outstanding.get(job.job_id)
            if existing is not None:
                self.metrics.count_deduped()
                return existing
            cached = self._completed.get(job.job_id)
            if cached is not None:
                self.metrics.count_deduped()
                handle.set_result(cached)
                return handle
            # Register before the queue put: the dispatcher may finish
            # (and retire) the job before put() even returns.
            self._outstanding[job.job_id] = handle
        self.metrics.count_submitted()
        try:
            shed = self.queue.put(_Queued(job, handle), timeout=timeout)
        except (AdmissionRejected, ServiceClosed) as exc:
            if isinstance(exc, AdmissionRejected):
                self.metrics.count_rejected()
                log.warning("job %s rejected: %s", job.job_id, exc.reason)
            with self._dedup_lock:
                self._outstanding.pop(job.job_id, None)
            raise
        if shed is not None:
            self._finish_rejected(
                shed, AdmissionRejected("shed", "shed under overload"),
                "shed",
            )
        return handle

    def factor(self, A=None, timeout: float | None = None, **kw) -> JobResult:
        """Submit and wait — the one-call path."""
        return self.submit(A, **kw).result(timeout)

    def solve(
        self,
        b: np.ndarray,
        pattern_id: str,
        job_id: str | None = None,
        deadline_s: float | None = None,
        fault_plan=None,
    ) -> SolveResult:
        """Solve ``A x = b`` against the pattern's resident factor.

        The warm path dispatches a distributed triangular solve to the
        pool workers that still hold the pattern's factor blocks from its
        last factor job — only the permuted RHS panel travels; no pattern
        context, no matrix values, no factor bytes. When residency was
        lost (pool heal/restart/regrow) or the pool job fails — e.g. a
        worker killed mid-solve — the service falls back to the retained
        driver-side factor and solves sequentially: the result is
        bitwise-identical either way, and :attr:`SolveResult.outcome`
        says which route ran (``"clean"`` vs ``"degraded_sequential"``).

        Typed errors, never hangs: :class:`UnknownPatternError` for an
        uncached pattern, :class:`JobFailed` for a pattern with no
        completed factor or a bad RHS shape, :class:`ServiceUnavailable`
        while the circuit breaker is open, :class:`DeadlineExceeded`
        past ``deadline_s``. Passing an explicit ``job_id`` is
        idempotent: a retry of a completed solve returns the cached
        result without re-running. ``fault_plan`` injects deterministic
        faults into the warm solve's workers (chaos testing).
        """
        if not self._started:
            self.start()
        if self._closed:
            raise ServiceClosed("service is shut down")
        job_id = job_id or uuid.uuid4().hex[:12]
        with self._dedup_lock:
            cached = self._completed_solves.get(job_id)
            if cached is not None:
                self.metrics.count_deduped()
                return cached
        t0 = time.monotonic()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = None if deadline_s is None else t0 + deadline_s
        record = JobRecord(job_id=job_id, deadline_s=deadline_s or 0.0)
        entry = self.cache.lookup(pattern_id)
        if entry is None:
            raise UnknownPatternError(
                f"pattern {pattern_id!r} is not cached (evicted, or from "
                "a previous service run); factor the full matrix first"
            )
        record.pattern_id = entry.pattern_id
        record.cache = "hit"
        if entry.last_factor is None:
            raise JobFailed(
                job_id,
                f"pattern {pattern_id!r} has no completed factor to "
                "solve against",
            )
        b = np.asarray(b, dtype=np.float64)
        panel = b.reshape(-1, 1) if b.ndim == 1 else b
        if panel.ndim != 2 or panel.shape[0] != entry.shape[0]:
            raise JobFailed(
                job_id,
                f"rhs has shape {b.shape}; pattern expects "
                f"{entry.shape[0]} rows",
            )
        if not self.breaker.allow():
            raise ServiceUnavailable(
                "circuit breaker open: solve refused while the pool "
                "recovers"
            )
        pb = np.ascontiguousarray(panel[entry.perm])
        metrics = trace = None
        x_perm = None
        outcome_tag = OUTCOME_DEGRADED
        expired = False
        if (
            self.pool.running
            and entry.resident_generation == self.pool.generation
        ):
            with self._pool_lock:
                seq = next(self._seq)
                spec = PoolJob(
                    seq=seq,
                    pattern_id=entry.pattern_id,
                    values=None,
                    kind="solve",
                    rhs=pb,
                    deadline=deadline,
                    trace_capacity=self.config.trace_capacity,
                    fault_plan=fault_plan,
                )
                out = self.pool.run_batch(
                    [spec], timeout_s=self.batch_timeout_s
                )[seq]
                # A heal bumps the pool generation: residency is lost.
                self._pool_settled(settle(self.pool, self.policy))
            expired = out.expired
            if out.ok:
                record.run_s = out.wall_s
                record.batch_size = 1
                try:
                    _, x_perm, metrics, trace = self._outcome_result(
                        out, entry, record, rhs=pb
                    )
                    outcome_tag = OUTCOME_CLEAN
                except FanoutError as exc:
                    # A panel is missing: fall back rather than release
                    # a wrong answer.
                    record.error = str(exc)
            else:
                record.error = out.error or "aborted"
        if x_perm is None and not expired:
            expired = deadline is not None and time.monotonic() > deadline
        if expired:
            exc = self._expire(record, f"solve {job_id!r}", deadline_s)
            self.metrics.add(record)
            raise exc
        if x_perm is None:
            # Sequential fallback on the retained factor — the same
            # block substitution the distributed sweep mirrors, so the
            # answer is bitwise-identical to a clean warm solve.
            t_seq = time.monotonic()
            from repro.numeric.solve import block_solve_permuted

            x_perm = block_solve_permuted(entry.last_factor, pb)
            record.run_s = time.monotonic() - t_seq
        x = np.empty_like(panel)
        x[entry.perm] = x_perm
        if b.ndim == 1:
            x = x[:, 0]
        record.outcome = outcome_tag
        record.status = "ok"
        record.error = ""
        record.e2e_s = time.monotonic() - t0
        result = SolveResult(
            job_id=job_id,
            pattern_id=entry.pattern_id,
            x=x,
            outcome=outcome_tag,
            metrics=metrics,
            trace=trace,
            record=record,
        )
        self.metrics.add(record)
        with self._dedup_lock:
            if self._dedup_capacity:
                self._completed_solves[job_id] = result
                self._completed_solves.move_to_end(job_id)
                while len(self._completed_solves) > self._dedup_capacity:
                    self._completed_solves.popitem(last=False)
        return result

    def stats(self) -> dict:
        """Service-level counters + aggregates (JSON-safe)."""
        return {
            "nprocs": self.nprocs,
            "pool_nprocs": self.pool.nprocs,
            "transport": self.transport,
            "mapping": self.config.mapping,
            "pool_generation": self.pool.generation,
            "breaker": self.breaker.to_dict(),
            "queue": self.queue.stats.to_dict(),
            "pattern_cache": self.cache.stats(),
            "service": self.metrics.to_dict(include_records=False),
        }

    def health(self) -> dict:
        """Cheap liveness/degradation probe (JSON-safe).

        ``status`` is ``"ok"`` (pool healthy, breaker closed),
        ``"degraded"`` (breaker open/half-open, or the pool healed down
        to fewer workers than configured), or ``"closed"``.
        """
        breaker = self.breaker.to_dict()
        degraded = (
            breaker["state"] != CircuitBreaker.CLOSED
            or (self.pool.running and self.pool.nprocs < self.nprocs)
        )
        status = (
            "closed" if self._closed
            else "degraded" if degraded
            else "ok"
        )
        now = time.monotonic()
        return {
            "status": status,
            "breaker": breaker,
            "pool": {
                "running": self.pool.running,
                "alive": self.pool.alive,
                "nprocs": self.pool.nprocs,
                "configured_nprocs": self.nprocs,
                "generation": self.pool.generation,
                "heartbeat_age_s": {
                    str(rank): round(now - t, 3)
                    for rank, t in sorted(
                        self.pool.last_heartbeats.items()
                    )
                },
            },
            "queue": {
                "depth": len(self.queue),
                "closed": self.queue.closed,
            },
        }

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self.queue.get_batch(self.max_batch, self.batch_wait_s)
            if not batch:
                if self.queue.closed:
                    return
                continue
            try:
                self._run_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - keep serving
                for queued in batch:
                    if not queued.handle.done():
                        self._finish_failed(
                            queued,
                            JobFailed(queued.job.job_id, repr(exc)),
                            record=JobRecord(
                                job_id=queued.job.job_id,
                                status="failed",
                                error=repr(exc),
                            ),
                        )

    def _run_batch(self, batch: list) -> None:
        self.metrics.count_batch()
        t_dispatch = time.monotonic()
        prepared: list[_Prep] = []
        protect = {
            q.job.pattern_id for q in batch if q.job.pattern_id
        }
        for queued in batch:
            record = JobRecord(
                job_id=queued.job.job_id,
                queue_wait_s=t_dispatch - queued.enqueued_at,
                deadline_s=queued.job.deadline_s or 0.0,
            )
            if queued.job.expired:
                # Died waiting in the queue — typed error, nothing runs.
                self.queue.note_expired()
                self._finish_expired(queued, record)
                continue
            try:
                entry, record.cache, A_full = self._resolve_entry(
                    queued.job, record, protect
                )
                A_perm = self._job_matrix(queued.job, entry, A_full)
            except _PER_JOB_ERRORS as exc:
                record.status = "failed"
                record.error = str(exc)
                self._finish_failed(queued, exc, record)
                continue
            protect.add(entry.pattern_id)
            plan = None
            if self.fault_plan is not None and (
                self._dispatched in self.fault_jobs
            ):
                plan = self.fault_plan
            self._dispatched += 1
            prepared.append(_Prep(queued, entry, record, A_perm, plan))
        # Breaker open: don't touch the pool; every job runs on the
        # sequential last resort — degraded but correct.
        spent = prepared
        if self.breaker.allow():
            spent = []
            # ``_pool_lock`` keeps concurrent :meth:`solve` dispatches out
            # of the pool while a factor batch is in flight (and vice
            # versa).
            with self._pool_lock:
                # A pool that healed onto a shrunken crew during an
                # earlier batch grows back to its configured width here —
                # between batches is the only safe point. The loop
                # re-plans owners for the restored width exactly as it
                # re-planned for the shrink.
                if (
                    self.pool.running
                    and self.pool.nprocs < self.pool.configured_nprocs
                ):
                    self.pool.regrow()
                for p in recover(
                    self.pool, prepared, self._make_specs, self.policy,
                    self.batch_timeout_s, self._pool_settled,
                ):
                    if p.report.ok:
                        self._finish_job(p)  # released under the lock
                    else:
                        spent.append(p)
        for p in spent:
            self._finish_job(p)
        self._release_evictions()

    def _pool_settled(self, healed: bool) -> bool:
        """Tell the breaker how a ``run_batch`` left the pool (call with
        ``_pool_lock`` held, after :func:`~repro.runtime.recovery.settle`,
        so the cooldown counts from when the new crew is up). Answers
        whether the pool may run a retry: only while the breaker is
        closed — a half-open probe is a whole batch, never a retry."""
        if healed:
            self.metrics.count_pool_restart()
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        return self.breaker.state == CircuitBreaker.CLOSED

    def _make_specs(self, pending: list[_Prep], attempt: int) -> list[PoolJob]:
        """Pool specs for one parallel attempt (fresh seqs each time;
        contexts re-ship when a healed crew never saw them)."""
        specs = []
        last_on_arena: dict[str, int] = {}
        for p in pending:
            entry = p.plan
            p.record.batch_size = len(pending)
            spec = PoolJob(
                seq=next(self._seq),
                pattern_id=entry.pattern_id,
                values=p.A.data,
                context=(
                    entry.context()
                    if entry.pattern_id not in self.pool.seen_patterns
                    else None
                ),
                wait_for=last_on_arena.get(entry.pattern_id),
                trace_capacity=self.config.trace_capacity,
                deadline=p.queued.job.deadline,
                # Injected faults fire on the first attempt only —
                # transient by construction, like CrashSpec's default.
                fault_plan=p.fault_plan if attempt == 0 else None,
            )
            if entry.arena is not None:
                last_on_arena[entry.pattern_id] = spec.seq
            if spec.context is not None:
                # run_batch records it too, but later jobs in *this* loop
                # must already see the pattern as shipped.
                self.pool.seen_patterns.add(entry.pattern_id)
            specs.append(spec)
        # A job needs a DONE announcement exactly when a later job in the
        # batch waits on its arena slots.
        waited_on = {s.wait_for for s in specs if s.wait_for is not None}
        for spec in specs:
            spec.announce = spec.seq in waited_on
        return specs

    @staticmethod
    def _expire(record: JobRecord, what: str, deadline_s) -> DeadlineExceeded:
        record.status = "expired"
        record.error = f"deadline of {deadline_s}s exceeded"
        return DeadlineExceeded(f"{what} missed its {deadline_s}s deadline")

    def _finish_expired(self, queued, record: JobRecord) -> None:
        job = queued.job
        exc = self._expire(record, f"job {job.job_id!r}", job.deadline_s)
        log.warning("job %s expired: %s", job.job_id, record.error)
        self._finish_failed(queued, exc, record)

    # -- pattern resolution --------------------------------------------
    def _resolve_entry(self, job: FactorJob, record: JobRecord, protect):
        """Find or build the job's :class:`PatternEntry`.

        Returns ``(entry, "hit"|"miss", A_full)`` where ``A_full`` is
        the client's matrix (None on the values-only path).
        """
        if job.pattern_id is not None:
            entry = self.cache.lookup(job.pattern_id)
            if entry is None:
                self.cache.misses -= 1  # not a buildable miss
                raise UnknownPatternError(
                    f"pattern {job.pattern_id!r} is not cached "
                    "(evicted, or from a previous service run); "
                    "resubmit the full matrix"
                )
            record.pattern_id = entry.pattern_id
            return entry, "hit", None
        pid = pattern_digest(job.A, self.config.plan_key())
        record.pattern_id = pid
        entry = self.cache.lookup(pid)
        if entry is not None:
            return entry, "hit", job.A
        t0 = time.monotonic()
        entry = self._build_entry(pid, job.A)
        entry.setup_s = time.monotonic() - t0
        record.setup_s = entry.setup_s
        for evicted in self.cache.put(entry, protect=protect):
            log.info("pattern %s evicted from the cache", evicted.pattern_id)
            self.pool.evict([evicted.pattern_id])
            self._pending_evictions.append(evicted)
        return entry, "miss", job.A

    def _build_entry(self, pid: str, A: sparse.csc_matrix) -> PatternEntry:
        """Cold setup: symbolic analysis, owner plan, arena — once per
        pattern."""
        from repro.blocks import BlockStructure, WorkModel, make_partition
        from repro.fanout import TaskGraph
        from repro.ordering import resolve_ordering
        from repro.symbolic import symbolic_factor

        cfg = self.config
        perm = resolve_ordering(A, cfg.ordering)
        symbolic = symbolic_factor(A, perm)
        structure = BlockStructure(make_partition(
            symbolic, cfg.block_policy, cfg.block_size,
            cfg.min_width, cfg.max_width,
        ))
        wm = WorkModel(structure)
        tg = TaskGraph(wm)
        owners, name = plan_owners(
            wm, tg, cfg.nprocs, cfg.mapping, cfg.use_domains
        )
        arena = None
        if self.transport == "shm":
            arena = BlockArena.create(tg)
        return PatternEntry(
            pattern_id=pid,
            symbolic=symbolic,
            structure=structure,
            tg=tg,
            owners=owners,
            mapping_name=name,
            perm=np.asarray(symbolic.ordering.perm),
            orig_indptr=A.indptr.copy(),
            orig_indices=A.indices.copy(),
            arena=arena,
            config=cfg,
            planned_nprocs=cfg.nprocs,
        )

    def _job_matrix(self, job, entry: PatternEntry, A_full):
        """The permuted csc matrix the job factors (the workers get its
        data array; its pattern is the entry's ``symbolic.A``)."""
        from repro.ordering import permute_spd

        if A_full is None:
            if job.values.shape[0] != entry.nnz:
                raise JobFailed(
                    job.job_id,
                    f"values array has {job.values.shape[0]} entries; "
                    f"pattern {entry.pattern_id!r} has {entry.nnz}",
                )
            A_full = sparse.csc_matrix(
                (job.values, entry.orig_indices, entry.orig_indptr),
                shape=entry.shape,
            )
        elif A_full.shape != entry.shape:
            raise JobFailed(
                job.job_id,
                f"matrix shape {A_full.shape} != pattern {entry.shape}",
            )
        # Same deterministic permutation the cold path took — the warm
        # factor stays bitwise identical to a cold factor() of the same
        # values.
        return permute_spd(A_full, entry.perm)

    # -- completion -----------------------------------------------------
    def _retire(self, job_id: str, result: JobResult | None = None) -> None:
        """Retire a job from the dedup registry. Successful results are
        kept (bounded LRU) so a late idempotent retry of the same job_id
        gets the answer instead of a re-run; failures are dropped so a
        retry re-runs the job."""
        with self._dedup_lock:
            self._outstanding.pop(job_id, None)
            if result is not None and self._dedup_capacity:
                self._completed[job_id] = result
                self._completed.move_to_end(job_id)
                while len(self._completed) > self._dedup_capacity:
                    self._completed.popitem(last=False)

    def _finish_job(self, p: _Prep) -> None:
        """Release a job as the recovery loop left it (or, with the
        breaker open, never saw it): assemble the parallel factor or run
        the sequential last resort, and answer the handle. The record's
        ``outcome`` / ``attempts`` / ``error`` are read off the job's
        :class:`~repro.runtime.recovery.FailureReport`."""
        queued, entry, record, rep = p.queued, p.plan, p.record, p.report
        ok = rep.ok
        record.attempts = len(rep.attempts) + ok
        if not ok and (
            queued.job.expired
            or (p.outcome is not None and p.outcome.expired)
        ):
            self._finish_expired(queued, record)
            return
        t0 = time.monotonic()
        trace = None
        try:
            if ok:
                record.run_s = p.outcome.wall_s
                factor, _, metrics, trace = self._outcome_result(
                    p.outcome, entry, record, want_factor=True
                )
            else:
                try:
                    factor, metrics = last_resort(p)
                except Exception as exc:  # noqa: BLE001 - typed per-job failure
                    # Its error (``LinAlgError`` for a matrix that is not
                    # positive definite) is the job's canonical one.
                    raise JobFailed(
                        queued.job.job_id,
                        f"sequential fallback failed: {exc!r}",
                    ) from exc
                record.run_s = metrics.wall_s
                metrics.problem = entry.pattern_id
                self._tag_metrics(metrics, record)
                t0 = time.monotonic()  # assembly starts here
            L = factor.to_csc()
            if ok and self.validate:
                self._validate(queued.job.job_id, entry, p.A, L)
        except (JobFailed, FanoutError) as exc:
            # A gather that does not cover every block fails the job like
            # a failed validation: never release a factor with holes.
            if isinstance(exc, FanoutError):
                exc = JobFailed(queued.job.job_id, str(exc))
            record.status = "failed"
            record.error = exc.detail
            self._finish_failed(queued, exc, record)
            return
        record.outcome = rep.outcome
        record.assemble_s = time.monotonic() - t0
        record.e2e_s = time.monotonic() - queued.job.submitted_at
        # Retain the factor for solve requests: the driver-side copy is
        # the sequential fallback, and the pool workers that ran the job
        # keep their blocks resident for warm distributed solves (no
        # worker holds a last-resort factor).
        entry.last_factor = factor
        entry.resident_generation = self.pool.generation if ok else -1
        result = JobResult(
            job_id=queued.job.job_id,
            pattern_id=entry.pattern_id,
            cache=record.cache,
            L=L,
            perm=entry.perm,
            factor=factor,
            metrics=metrics,
            trace=trace,
            record=record,
        )
        self.metrics.add(record)
        self._retire(queued.job.job_id, result)
        queued.handle.set_result(result)

    def _validate(self, job_id, entry: PatternEntry, A_perm, L) -> None:
        """Bitwise check against the sequential baseline (the runtime's
        determinism makes exact equality the correct bar)."""
        from repro.numeric import BlockCholesky

        ref = BlockCholesky(entry.structure, A_perm).factor().to_csc()
        same = (
            np.array_equal(L.indptr, ref.indptr)
            and np.array_equal(L.indices, ref.indices)
            and np.array_equal(L.data, ref.data)
        )
        if not same:
            raise ValidationFailed(
                job_id,
                "parallel factor differs bitwise from the sequential "
                "baseline",
            )

    def _outcome_result(self, outcome, entry, record, want_factor=False,
                        rhs=None):
        """:func:`~repro.runtime.engine.outcome_result` for a job of
        ``entry``'s pattern, with the service context on the metrics."""
        factor, solution, metrics, trace = outcome_result(
            outcome, entry.structure, entry.tg, want_factor or None, rhs,
            owners=entry.owners,
            mapping=entry.mapping_name,
            transport="shm" if entry.arena is not None else "inline",
            config=entry.config,
            problem=entry.pattern_id,
        )
        self._tag_metrics(metrics, record)
        return factor, solution, metrics, trace

    @staticmethod
    def _tag_metrics(metrics, record: JobRecord) -> None:
        metrics.extra["service"] = {
            "job_id": record.job_id,
            "cache": record.cache,
            "batch_size": record.batch_size,
            "queue_wait_s": record.queue_wait_s,
        }

    def _finish_failed(self, queued, exc, record) -> None:
        self.metrics.add(record)
        self._retire(queued.job.job_id)
        queued.handle.set_exception(exc)

    def _finish_rejected(self, queued, exc, status: str) -> None:
        record = JobRecord(
            job_id=queued.job.job_id, status=status, error=str(exc)
        )
        log.warning("job %s %s: %s", record.job_id, status, exc)
        self._finish_failed(queued, exc, record)

    def _release_evictions(self) -> None:
        for entry in self._pending_evictions:
            entry.destroy()
        self._pending_evictions.clear()
