"""The :class:`FactorService` driver: warm pool + pattern cache +
admission queue + one dispatcher that runs one job at a time.

Lifecycle of a job (a factorization or a warm solve)::

    submit(A) / solve(b)     admission queue          dispatcher thread
    ───────────▶ JobQueue ──────────────────▶ get() ───────┐
                  (bounded: wait, then reject)             │ resolve
                                                           │ pattern
                                                           ▼
             a factor: recovery.run_job; a solve: WorkerPool.run
                                                           │
                  JobHandle ◀── finite + validate ◀────────┘

The dispatcher thread is the only caller of the pool and the only writer
of the pattern cache: one job is in flight, the next is taken when its
handle has been answered. A factor job runs through the runtime's one
job driver, :func:`~repro.runtime.recovery.run_job`, on the pattern's
:class:`PatternEntry` — attempts, crew restarts, the sequential fallback —
and the service adds its record, its typed errors and the retained
factor.
Cold jobs (pattern never seen) pay symbolic analysis, owner planning,
and arena creation once; the resulting :class:`PatternEntry` is cached
and its context shipped to the resident workers with the first job.
Warm jobs ship a values array. Either way the numeric result is the
sequential :class:`~repro.numeric.BlockCholesky`'s — bit for bit on a
``1 x P`` grid — and ``validate=True`` asserts that on every job.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import uuid

import numpy as np
from scipy import sparse

from repro.config import RunConfig, check_number
from repro.numeric.solve import permute_rhs
from repro.runtime.arena import resolve_transport
from repro.runtime.engine import FanoutError, outcome_result
from repro.runtime.pool import PoolJob, WorkerPool
from repro.runtime.recovery import (
    OUTCOME_CLEAN, OUTCOME_DEGRADED, run_job, settle,
)
from repro.runtime.validation import factor_bound
from repro.service.admission import JobQueue
from repro.service.cache import PatternCache, PatternEntry, pattern_digest
from repro.service.jobs import (
    AdmissionRejected,
    FactorJob,
    JobFailed,
    JobHandle,
    JobResult,
    ServiceClosed,
    SolveJob,
    SolveResult,
    UnknownPatternError,
    ValidationFailed,
)
from repro.service.metrics import JobRecord, ServiceMetrics

log = logging.getLogger("repro.service")

#: Errors the dispatcher turns into per-job failures
#: (``ValidationFailed`` subclasses ``JobFailed``).
_PER_JOB_ERRORS = (UnknownPatternError, JobFailed)


def _job_id() -> str:
    """A fresh job id: the service names every job it admits."""
    return uuid.uuid4().hex[:12]


class _Queued:
    """A job waiting for dispatch: its handle and admission timestamp."""

    __slots__ = ("job", "handle", "enqueued_at")

    def __init__(self, job, handle: JobHandle):
        self.job = job
        self.handle = handle
        self.enqueued_at = time.monotonic()


class FactorService:
    """A long-lived factorization service over the persistent pool.

    The knobs shared with the other layers are one
    :class:`~repro.config.RunConfig` (``config`` and/or field overrides by
    keyword, ``nprocs`` defaulting to 2 here; table in
    ``docs/ARCHITECTURE.md``): a job gets ``config.max_restarts + 1``
    parallel attempts, each bounded by ``config.timeout_s``. The
    service-only knobs stay keywords: the queue and cache bounds and
    ``validate`` (check every factor against the sequential baseline
    before releasing it). A bad value raises ``ValueError`` before a pool
    exists. Faults are injected per job:
    ``submit(fault_plan=)`` and ``solve(fault_plan=)``. A caller bounds
    its own wait: ``result(timeout)`` on a handle.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        queue_capacity: int = 64,
        cache_capacity: int = 8,
        validate: bool = False,
        **overrides,
    ):
        self.config = RunConfig.of(config, overrides, nprocs=2)
        #: The pool width: every job of every pattern runs this wide.
        self.nprocs = self.config.nprocs
        #: The transport ``config.transport`` resolves to on this platform.
        self.transport = resolve_transport(self.config.transport, self.nprocs)
        self.validate = validate
        self.queue = JobQueue(queue_capacity)
        self.cache = PatternCache(cache_capacity)
        self.pool = WorkerPool(self.nprocs)
        self.metrics = ServiceMetrics()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._dispatcher: threading.Thread | None = None
        #: The handle of the one job the dispatcher has taken and not yet
        #: answered (None while it waits on the queue).
        self._running: JobHandle | None = None

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
        the dispatcher finish the running and the queued jobs, then fail
        every job it did not reach (still queued, or the one it holds)
        with a typed :class:`ServiceClosed` — a caller blocked in
        ``result()`` always gets an answer, never a hang. The pool is
        closed for good; the dispatcher releases every arena when it
        ends. Idempotent."""
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
            job_id, why = queued.job.job_id, "service is shut down"
            log.warning("job %s failed: %s", job_id, why)
            self._finish_failed(queued, ServiceClosed(why), JobRecord(
                job_id=job_id, status="failed", error=why,
            ))
        # The straggler the drain did not reach — the job the dispatcher
        # took and never completed (hung pool, stuck dispatcher). Without
        # this, its caller blocks in result() forever.
        with self._lock:
            handle = self._running
            if handle is not None and not handle.done():
                why = (
                    "service is shut down"
                    if drained
                    else f"shutdown drain timed out after {timeout:g}s"
                )
                self.metrics.add(JobRecord(
                    job_id=handle.job_id, status="failed", error=why,
                ))
                handle.set_exception(ServiceClosed(why))
        self.pool.close()

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
        timeout: float | None = None,
        fault_plan=None,
    ) -> JobHandle:
        """Queue one factorization; returns immediately with a handle.

        ``timeout`` bounds the wait for room in a full queue (``0``
        refuses at once; a NaN or negative one is a ``ValueError``, raised
        before the job is counted). Raises :class:`AdmissionRejected` /
        :class:`ServiceClosed` at submit time — a full queue is a typed
        error, never a hang. The caller bounds its wait for the answer
        with ``handle.result(timeout)``.

        The service names the job (``handle.job_id``). Every call runs
        one job: a resubmission runs the job again, and its factor is
        bitwise the first one's.
        ``fault_plan`` injects deterministic faults into the job's parallel
        attempts: ``fault_plan.for_attempt(k)`` into attempt ``k``.
        """
        if timeout is not None:  # a NaN wait would spin on a full queue
            timeout = check_number("timeout", timeout, float, 0)
        job = FactorJob(
            job_id=_job_id(),
            A=A,
            pattern_id=pattern_id,
            values=values,
            fault_plan=fault_plan,
        )
        return self._admit(job, timeout)

    def _admit(self, job, timeout=None) -> JobHandle:
        """Queue the job, waiting up to ``timeout`` for room."""
        if not self._started:
            self.start()
        handle = JobHandle(job)
        self.metrics.count_submitted()
        try:
            self.queue.put(_Queued(job, handle), timeout=timeout)
        except AdmissionRejected as exc:
            self.metrics.count_rejected()
            log.warning("job %s rejected: %s", job.job_id, exc.reason)
            raise
        return handle

    def factor(self, A=None, timeout: float | None = None, **kw) -> JobResult:
        """Submit and wait — the one-call path."""
        return self.submit(A, **kw).result(timeout)

    def solve(
        self,
        b: np.ndarray,
        pattern_id: str,
        fault_plan=None,
    ) -> SolveResult:
        """Solve ``A x = b`` against the pattern's resident factor.

        Checked here, on the calling thread, then queued like a
        factorization, so it runs against the factor that preceded it in
        the queue. The warm path dispatches a distributed triangular
        solve to the pool workers that still hold the pattern's factor
        blocks — only the permuted RHS panel travels. When residency was
        lost (a pool restart or an eviction) or the pool job fails — e.g. a
        worker killed mid-solve — the service solves sequentially on the
        retained driver-side factor: the result is bitwise-identical
        either way, and :attr:`SolveResult.outcome` says which route ran
        (``"clean"`` vs ``"degraded_sequential"``).

        Typed errors, never hangs: :class:`UnknownPatternError` for an
        uncached pattern, :class:`JobFailed` for a pattern with no
        completed factor, a bad RHS shape or a NaN/Inf in the RHS (all
        before anything is queued); a full queue holds the solve until
        there is room.
        Every call runs one job, as for :meth:`submit`.
        ``fault_plan`` injects deterministic faults into the warm solve's
        workers.
        """
        if self._closed:
            raise ServiceClosed("service is shut down")
        job_id = _job_id()
        # Counter-neutral: the dispatcher is the cache's only writer.
        entry = self.cache.peek(pattern_id)
        if entry is None:
            raise UnknownPatternError(
                f"pattern {pattern_id!r} is not cached (evicted, or from "
                "a previous service run); factor the full matrix first"
            )
        if entry.last_factor is None:
            raise JobFailed(
                job_id,
                f"pattern {pattern_id!r} has no completed factor to "
                "solve against",
            )
        try:  # a wrong shape, a NaN or an Inf never reaches the queue
            pb, _ = permute_rhs(b, entry.shape[0], entry.perm)
        except ValueError as exc:
            raise JobFailed(job_id, str(exc)) from None
        panel = pb.reshape(-1, 1) if pb.ndim == 1 else pb
        job = SolveJob(
            job_id, entry, np.ascontiguousarray(panel),
            pb.ndim == 1, fault_plan,
        )
        return self._admit(job).result()

    def stats(self) -> dict:
        """Service-level counters + aggregates (JSON-safe)."""
        return {
            "nprocs": self.nprocs,
            "transport": self.transport,
            "mapping": self.config.mapping,
            "pool_generation": self.pool.generation,
            "pattern_cache": self.cache.stats(),
            "service": self.metrics.to_dict(include_records=False),
        }

    def health(self) -> dict:
        """Cheap liveness probe (JSON-safe): ``status`` is ``"ok"`` or
        ``"closed"``."""
        return {
            "status": "closed" if self._closed else "ok",
            "pool": {
                "running": self.pool.running,
                "alive": self.pool.alive,
                "nprocs": self.pool.nprocs,
                "generation": self.pool.generation,
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
        while (queued := self.queue.get()) is not None:
            self._running = queued.handle
            try:
                self._run_job(queued)
            except Exception as exc:  # noqa: BLE001 - keep serving
                log.exception("job %s crashed the dispatcher's handler",
                              queued.job.job_id)
                self._finish_failed(
                    queued,
                    JobFailed(queued.job.job_id, repr(exc)),
                    record=JobRecord(
                        job_id=queued.job.job_id,
                        status="failed",
                        error=repr(exc),
                    ),
                )
            self._running = None
        # The cache's only writer releases it, after the last job: one
        # that outlived close()'s drain may have cached a pattern.
        self.cache.close()

    def _run_job(self, queued: _Queued) -> None:
        job = queued.job
        record = JobRecord(
            job_id=job.job_id,
            queue_wait_s=time.monotonic() - queued.enqueued_at,
        )
        if isinstance(job, SolveJob):
            self._run_solve(queued, record)
        else:
            self._run_factor(queued, record)

    def _run_factor(self, queued: _Queued, record: JobRecord) -> None:
        job = queued.job
        try:
            entry, record.cache, A_full = self._resolve_entry(job, record)
            A_perm = self._job_matrix(job, entry, A_full)
            generation = self.pool.generation
            try:
                res = run_job(
                    self.pool, entry, A_perm, self.config.max_restarts + 1,
                    self._seq, fault_plan=job.fault_plan, label=job.job_id,
                )
            except np.linalg.LinAlgError as exc:
                # The fallback's error (a matrix that is not positive
                # definite) is the job's canonical one.
                raise JobFailed(
                    job.job_id, f"sequential fallback failed: {exc!r}"
                ) from exc
            finally:
                self.metrics.count_pool_restarts(
                    self.pool.generation - generation
                )
            report = res.failure_report
            ok = report.ok
            record.attempts = len(report.attempts) + ok
            t0 = time.monotonic()
            res.factor.check_finite()
            if ok and self.validate:
                self._validate(job.job_id, entry, A_perm, res.factor)
        except (*_PER_JOB_ERRORS, FanoutError, np.linalg.LinAlgError) as exc:
            # A gather that does not cover every block, or a NaN/Inf in
            # the factor, fails the job like a failed validation: never
            # release a factor with holes.
            if isinstance(exc, (FanoutError, np.linalg.LinAlgError)):
                exc = JobFailed(job.job_id, str(exc))
            record.status = "failed"
            record.error = str(exc)
            self._finish_failed(queued, exc, record)
            return
        gather = res.metrics.extra.get("gather", {})
        record.assemble_s = (time.monotonic() - t0 + gather.get("copy_s", 0.0)
                             + gather.get("check_s", 0.0))
        record.run_s = res.metrics.wall_s
        record.outcome = report.outcome
        record.e2e_s = time.monotonic() - job.submitted_at
        res.metrics.problem = entry.pattern_id
        self._tag_metrics(res.metrics, record)
        # Retain the factor for solve requests: the driver-side copy is
        # the sequential fallback, and the pool workers that ran the job
        # keep their blocks resident for warm distributed solves (no
        # worker holds a last-resort factor).
        entry.last_factor = res.factor
        entry.resident_generation = self.pool.generation if ok else -1
        self._finish_ok(queued, JobResult(
            job_id=job.job_id,
            pattern_id=entry.pattern_id,
            cache=record.cache,
            perm=entry.perm,
            factor=res.factor,
            metrics=res.metrics,
            trace=res.trace,
            record=record,
        ))

    def _run_solve(self, queued: _Queued, record: JobRecord) -> None:
        job, entry = queued.job, queued.job.entry
        record.pattern_id = entry.pattern_id
        # Counts the hit and refreshes recency; a miss when the pattern
        # was evicted while the solve was queued.
        found = self.cache.lookup(entry.pattern_id) is not None
        record.cache = "hit" if found else "miss"
        x_perm = metrics = trace = None
        # Warm only on the crew that factored the pattern (a restart or an
        # eviction ends residency).
        if (self.pool.running
                and entry.resident_generation == self.pool.generation):
            spec = PoolJob(
                seq=next(self._seq),
                pattern_id=entry.pattern_id,
                values=None,
                kind="solve",
                rhs=job.panel,
                trace_capacity=self.config.trace_capacity,
                fault_plan=job.fault_plan,
            )
            out = self.pool.run(spec, self.config.timeout_s)
            self.metrics.count_pool_restarts(settle(self.pool))
            if out.ok:
                record.run_s = out.wall_s
                try:
                    _, x_perm, metrics, trace = outcome_result(
                        out, entry.structure, entry.tg, rhs=job.panel,
                        mapping=entry.mapping_name, arena=entry.arena,
                        config=entry.config, problem=entry.pattern_id,
                    )
                    self._tag_metrics(metrics, record)
                except FanoutError as exc:
                    # A panel is missing: fall back rather than release
                    # a wrong answer.
                    record.error = str(exc)
            else:
                record.error = out.error or "aborted"
        record.outcome = OUTCOME_CLEAN
        if x_perm is None:
            # Sequential fallback on the retained factor — the same
            # block substitution the distributed sweep mirrors, so the
            # answer is bitwise-identical to a clean warm solve.
            from repro.numeric.solve import block_solve_permuted

            t_seq = time.monotonic()
            x_perm = block_solve_permuted(entry.last_factor, job.panel)
            record.run_s = time.monotonic() - t_seq
            record.outcome = OUTCOME_DEGRADED
        x = np.empty_like(job.panel)
        x[entry.perm] = x_perm
        record.error = ""
        record.e2e_s = time.monotonic() - job.submitted_at
        self._finish_ok(queued, SolveResult(
            job_id=job.job_id,
            pattern_id=entry.pattern_id,
            x=x[:, 0] if job.vector else x,
            outcome=record.outcome,
            metrics=metrics,
            trace=trace,
            record=record,
        ))

    # -- pattern resolution --------------------------------------------
    def _resolve_entry(self, job: FactorJob, record: JobRecord):
        """Find or build the job's :class:`PatternEntry`.

        Returns ``(entry, "hit"|"miss", A_full)`` where ``A_full`` is
        the client's matrix (None on the values-only path).
        """
        if job.pattern_id is not None:
            entry = self.cache.lookup(job.pattern_id)
            if entry is None:
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
        for evicted in self.cache.put(entry):
            # No job is in flight, so the arena can go at once; a solve
            # still queued for the pattern answers from its retained factor.
            log.info("pattern %s evicted from the cache", evicted.pattern_id)
            self.pool.evict([evicted.pattern_id])
            evicted.resident_generation = -1
            evicted.destroy()
        return entry, "miss", job.A

    def _build_entry(self, pid: str, A: sparse.csc_matrix) -> PatternEntry:
        """Cold setup: symbolic analysis, owner plan, arena — once per
        pattern."""
        from repro.blocks import BlockPartition, BlockStructure, WorkModel
        from repro.fanout import TaskGraph
        from repro.ordering import resolve_ordering
        from repro.symbolic import symbolic_factor

        cfg = self.config
        perm = resolve_ordering(A, cfg.ordering)
        symbolic = symbolic_factor(A, perm)
        structure = BlockStructure(BlockPartition(symbolic, cfg.block_size))
        return PatternEntry.create(
            structure, TaskGraph(WorkModel(structure)), cfg, pid,
            symbolic=symbolic,
            perm=np.asarray(symbolic.ordering.perm),
            orig_indptr=A.indptr.copy(),
            orig_indices=A.indices.copy(),
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
    def _validate(self, job_id, entry: PatternEntry, A_perm, factor) -> None:
        """Check against the sequential baseline, within
        :func:`~repro.runtime.validation.factor_bound`."""
        from repro.numeric import BlockCholesky

        ref = BlockCholesky(entry.structure, A_perm).factor().to_csc()
        bound = factor_bound(entry.owners, entry.tg, ref)
        if not abs(factor.to_csc() - ref).max() <= bound:
            raise ValidationFailed(job_id, "parallel factor differs from "
                                   "the sequential baseline")

    @staticmethod
    def _tag_metrics(metrics, record: JobRecord) -> None:
        metrics.extra["service"] = {
            "job_id": record.job_id,
            "cache": record.cache,
            "batch_size": record.batch_size,
            "queue_wait_s": record.queue_wait_s,
        }

    # A handle is answered, and its job counted, once: close() may have
    # failed the job the dispatcher still holds before the job ends.
    def _finish_ok(self, queued, result) -> None:
        with self._lock:
            if not queued.handle.done():
                self.metrics.add(result.record)
                queued.handle.set_result(result)

    def _finish_failed(self, queued, exc, record) -> None:
        with self._lock:
            if not queued.handle.done():
                self.metrics.add(record)
                queued.handle.set_exception(exc)
