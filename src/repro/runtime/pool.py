"""The worker pool: the one process lifecycle of the runtime.

The paper's block fan-out method has one execution model — P processors
that own blocks and exchange completed ones — and :class:`WorkerPool` is
its one implementation: the only code that creates processes, a
:class:`~repro.runtime.links.LinkFabric`, a result queue, a collect loop
or a reap. ``run_mp_fanout`` holds a pool for one call; a
``SparseCholesky(backend="mp")`` instance and the factorization service
(:mod:`repro.service`) keep one across calls — the
paper's own workload, a new numeric factor per interior-point step. Every
job is built by its pattern's :class:`~repro.runtime.engine.PatternPlan`:

* **Pattern contexts** travel once. A pattern's first job on a crew
  carries its block structure, task graph, owner plan and arena name;
  workers cache them (and the arena attachment) by pattern id, so every
  later job of the pattern is *values-only*: the permuted csc data.
* **One job in flight.** A job is one command put per worker, and
  :meth:`WorkerPool.run` collects every rank's result before it returns.
  So two jobs never share the fabric or a pattern's arena, and
  nothing on the worker side has to order them.
* **Job-tagged frames.** Every queue item is ``(seq, item)`` where ``seq``
  is the job number. A frame whose tag is not the running job's is a
  straggler of a finished one (a late DONE, an ABORT that lost the race
  with the result) and is dropped on read. Every rank of a clean factor
  job reports its blocks' ids and CRCs; inline it also ships their words,
  while on shm the driver copies the factor out of the pattern's arena
  before it dispatches the next job, the only writer that store can have.

Failure containment: a worker error poisons only its own job — the
erroring worker broadcasts ABORT for that job's tag, peers abort that
job, and the driver reports it failed; the crew serves the next, and the
recovery loop (:mod:`repro.runtime.recovery`) re-runs the job from
scratch. :class:`~repro.runtime.faults.FaultPlan` injection threads into
individual jobs so every layer above is chaos-testable. Liveness is the
driver's own check (:meth:`WorkerPool.dead_ranks`, every 10 ms while a
job runs).

Who replaces a crew: :meth:`WorkerPool.run` only *reports*. A dead
process or the job's timeout ABORTs the job and is recorded in
:attr:`WorkerPool.last_error` and in the job's :attr:`JobOutcome.broke`
and :attr:`JobOutcome.failed_ranks`; the crew is then in an unknown state,
and :func:`repro.runtime.recovery.settle` restarts it at its own width,
or the caller closes the pool, for good. A pool's width never changes.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import queue as queue_mod
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.fanout.dispatch import PlanHolder
from repro.runtime import wire
from repro.runtime.links import Link, LinkFabric
from repro.runtime.metrics import WorkerMetrics
from repro.runtime.worker import Worker, WorkerResult
from repro.util.heap import pin_malloc_thresholds

__all__ = [
    "PatternContext",
    "PoolJob",
    "JobOutcome",
    "WorkerPool",
]


#: ``fork`` shares the parent's imports with the crew for free; platforms
#: without it get ``spawn``.
START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Job descriptions (driver -> worker)
# ----------------------------------------------------------------------
@dataclass
class PatternContext(PlanHolder):
    """Everything a worker must hold to run jobs of one sparsity pattern.

    Shipped once per pattern per pool incarnation; ``indptr``/``indices``
    describe the *permuted* matrix, so later jobs need only a values
    array. ``arena_name`` names the driver-owned shared-memory segment
    for the pattern (None on the inline transport). Where it is resident
    it also keeps each rank's compiled ``dispatch_plan(rank)``,
    ``solve_plan(rank, ...)`` and ``init_map(rank)``, which never travel
    with it.
    """

    _TABLES = PlanHolder._TABLES + ("_init_maps",)

    pattern_id: str
    structure: object
    tg: object
    owners: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    arena_name: str | None = None
    #: The knobs the pattern's jobs run under (workers read ``schedule``).
    config: RunConfig = field(default_factory=RunConfig)

    def init_map(self, rank: int):
        """The rank's share of a job's initial state over its factor store
        (a private one inline, the arena's on shm): the store words of the
        blocks it owns and the entries of ``A`` that land there
        (:meth:`~repro.blocks.plan.NumericPlan.init_map`; applied by
        :meth:`~repro.numeric.blockfact.BlockCholesky.scatter`). Over all
        ranks the words partition the store, so every word has exactly one
        initializer."""
        def build():
            plan = self.structure.numeric_plan()
            own = np.flatnonzero(np.asarray(self.owners) == rank)
            return plan.init_map(self.indptr, self.indices, *plan.block_spans(
                self.tg.block_I[own], self.tg.block_J[own]))
        return self._compiled("_init_maps", rank, build)


@dataclass
class PoolJob:
    """One factorization (or warm solve) dispatched to the pool.

    ``values`` is the csc ``data`` array of the permuted input matrix.
    ``context`` is present exactly when this pool incarnation has not seen
    the pattern yet. ``fault_plan`` injects deterministic faults into this
    job's workers. ``rhs`` on a factor job appends the distributed
    triangular solve to the factor phase; ``kind="solve"`` runs it alone
    on the worker retained from the pattern's last clean factor job, and
    only ``rhs`` (the permuted right-hand-side panel) travels. A rank with
    no resident factor fails it with a typed protocol error.
    """

    seq: int
    pattern_id: str
    values: np.ndarray
    context: PatternContext | None = None
    trace_capacity: int = 0
    fault_plan: object | None = None
    kind: str = "factor"
    rhs: np.ndarray | None = None


@dataclass
class JobOutcome:
    """Driver-side result of one pooled job."""

    seq: int
    results: dict = field(default_factory=dict)  # rank -> WorkerResult
    error: str | None = None
    aborted: bool = False
    wall_s: float = 0.0
    #: The ranks the failure is attributed to: a rank is here iff its
    #: process died, it never reported before the job timed out, or it
    #: was the first to raise. A rank that stopped because a peer failed
    #: is merely aborted — whatever exception its own teardown then hit —
    #: so the job's error and report name the real casualties only.
    failed_ranks: list = field(default_factory=list)
    #: Why the job broke the crew (:attr:`WorkerPool.last_error`'s words;
    #: None when it left the crew sound) and whether a worker process died
    #: (else ``timeout_s`` ran out). The crew may be restarted before the
    #: job's error is typed, so the type is read from here.
    broke: str | None = None
    died: bool = False
    #: Which attempt of its job this was, stamped by the recovery loop.
    attempt: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.aborted


# ----------------------------------------------------------------------
# Job-tagged views over the persistent fabric
# ----------------------------------------------------------------------
class _TaggedQueue:
    """Write-side wrapper tagging every put with a job seq."""

    __slots__ = ("q", "tag")

    def __init__(self, q, tag: int):
        self.q = q
        self.tag = tag

    def put(self, item) -> None:
        self.q.put((self.tag, item))

    def cancel_join_thread(self) -> None:
        self.q.cancel_join_thread()


class _JobInbox:
    """Read-side wrapper: the inbox one :class:`Worker` (one job) sees.
    One job is in flight, so an item tagged with another seq is a
    straggler of a finished job and is dropped."""

    __slots__ = ("inbox", "seq")

    def __init__(self, inbox, seq: int):
        self.inbox = inbox
        self.seq = seq

    def get_nowait(self):
        while True:
            tag, item = self.inbox.get_nowait()  # raises Empty when drained
            if tag == self.seq:
                return item

    def get(self, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise queue_mod.Empty
            tag, item = self.inbox.get(timeout=remaining)
            if tag == self.seq:
                return item


class JobFabric:
    """A per-job view of the persistent :class:`LinkFabric`.

    Fresh :class:`Link` objects per job keep the per-link counters
    job-local (they land in that job's metrics); the underlying queues
    persist for the life of the pool.
    """

    def __init__(self, base: LinkFabric, seq: int):
        self.base = base
        self.seq = seq
        self.nprocs = base.nprocs

    def inbox(self, rank: int) -> _JobInbox:
        return _JobInbox(self.base.inbox(rank), self.seq)

    def outgoing(self, src: int) -> dict[int, Link]:
        return {
            dst: Link(src, dst, _TaggedQueue(self.base.inboxes[dst], self.seq))
            for dst in range(self.nprocs)
            if dst != src
        }


# ----------------------------------------------------------------------
# Worker-side resident loop
# ----------------------------------------------------------------------
class _PoolWorker:
    """The resident process: runs one job per command until told to stop."""

    def __init__(self, rank, fabric, commands, result_queue):
        self.rank = rank
        self.fabric = fabric
        self.commands = commands
        self.result_queue = result_queue
        self.patterns: dict[str, tuple] = {}  # pid -> (context, arena)
        #: pid -> the Worker of the pattern's last clean factor job,
        #: retained with its factor blocks for warm solve jobs.
        self.resident: dict[str, Worker] = {}

    # -- lifecycle -----------------------------------------------------
    def run(self) -> None:
        try:
            while True:
                cmd = self.commands.get()
                if cmd[0] == "stop":
                    break
                if cmd[0] == "evict":
                    self._evict(cmd[1])
                    continue
                _, epoch, job = cmd
                self._run_job(job, epoch)
        finally:
            self.resident.clear()
            self._close([arena for _, arena in self.patterns.values()])
            self.result_queue.cancel_join_thread()

    def _evict(self, pattern_ids) -> None:
        for pid in pattern_ids:
            self.resident.pop(pid, None)
        self._close([self.patterns.pop(pid, (None, None))[1]
                     for pid in pattern_ids])

    @staticmethod
    def _close(arenas) -> None:
        """Unmap ``arenas``. A past job's worker factored in one and may
        still hold its views in a reference cycle: collect those first,
        or the unmap is refused."""
        gc.collect()
        for arena in arenas:
            if arena is not None:
                arena.close()

    def _install(self, context: PatternContext):
        arena = None
        if context.arena_name is not None:
            from repro.runtime.arena import BlockArena

            arena = BlockArena.attach(context.tg, context.arena_name)
        self.patterns[context.pattern_id] = (context, arena)
        return self.patterns[context.pattern_id]

    # -- one job -------------------------------------------------------
    def _run_job(self, job: PoolJob, epoch: float) -> None:
        fabric = JobFabric(self.fabric, job.seq)
        results = _TaggedQueue(self.result_queue, job.seq)
        try:
            if job.kind == "solve":
                worker = self._resident_worker(job, fabric, results)
            else:
                worker = self._factor_worker(job, epoch, fabric, results)
        except RuntimeError:
            self._report_error(job.seq, traceback.format_exc())
            return
        worker.run()
        if job.kind == "factor":
            # Retain the factored worker for warm solve jobs; a failed or
            # aborted factor invalidates any previous resident factor too.
            if worker.metrics.error is None and not worker.metrics.aborted:
                self.resident[job.pattern_id] = worker
            else:
                self.resident.pop(job.pattern_id, None)

    def _resident_worker(self, job: PoolJob, fabric, results) -> Worker:
        """The pattern's retained, already-factored worker, re-armed for
        a warm solve: only the RHS panel travelled in the job; the factor
        blocks are already in this process (the shared store on shm, local
        arrays inline) and ship zero bytes."""
        worker = self.resident.get(job.pattern_id)
        if worker is None:
            raise RuntimeError(
                f"worker {self.rank} has no resident factor for pattern "
                f"{job.pattern_id!r} (factor before solving, and note "
                f"restarts clear residency)"
            )
        worker.arm(job, fabric, results)
        return worker

    def _factor_worker(self, job: PoolJob, epoch, fabric, results) -> Worker:
        entry = self.patterns.get(job.pattern_id)
        if job.context is not None:
            entry = self._install(job.context)
        if entry is None:
            raise RuntimeError(
                f"worker {self.rank} has no context for pattern "
                f"{job.pattern_id!r} (pool protocol breach)"
            )
        context, arena = entry
        return Worker(
            self.rank, context, job, arena, fabric, results, epoch
        )

    def _report_error(self, seq: int, text: str) -> None:
        metrics = WorkerMetrics(rank=self.rank)
        metrics.error = text
        self.result_queue.put(
            (seq, WorkerResult(self.rank, metrics))
        )


def pool_worker_main(rank: int, kwargs: dict) -> None:
    """Process entry point (module-level for the spawn start method). On
    Linux, rank r first pins itself to the (r mod k)-th of the k CPUs it
    may run on: where the cpuset does not balance load, a forked rank
    would otherwise stay on its parent's CPU, and the ranks share one."""
    if sys.platform.startswith("linux") and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        try:
            os.sched_setaffinity(0, {cpus[rank % len(cpus)]})
        except OSError:  # refused: run where the parent ran
            pass
    _PoolWorker(rank, **kwargs).run()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def _reap(procs, grace_s: float = 5.0) -> None:
    """Join every child; terminate (then kill) any that linger."""
    deadline = time.monotonic() + grace_s
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=1.0)
    for p in procs:
        if p.is_alive():  # pragma: no cover - last resort
            p.kill()
            p.join(timeout=1.0)
        p.close()


class WorkerPool:
    """A crew of factorization workers, for one job or for many.

    Usage::

        pool = WorkerPool(nprocs=4).start()
        outcome = pool.run(plan.job(pool, A, seq))
        pool.close()

    The pool tracks which pattern ids this incarnation has shipped
    (:attr:`seen_patterns`); :meth:`PatternPlan.job
    <repro.runtime.engine.PatternPlan.job>` includes a
    :class:`PatternContext` exactly when its pattern is not in that set.
    :meth:`restart` replaces the crew, at the same width, with a fresh
    fabric and clears the set, so contexts are re-shipped lazily.
    :meth:`close` is final: a later :meth:`start`, :meth:`run` or
    :meth:`restart` raises :class:`~repro.runtime.engine.FanoutError`.
    """

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.seen_patterns: set[str] = set()
        self.generation = 0
        #: Why the last :meth:`run` broke the pool (None when it
        #: ran clean). Callers use this to distinguish per-job failures
        #: from pool-level breakage; after a breakage the crew must be
        #: replaced (:meth:`restart`) or released (:meth:`close`).
        self.last_error: str | None = None
        self._procs: list = []
        self._commands: list = []
        self._results = None
        self._fabric: LinkFabric | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._procs)

    @property
    def alive(self) -> bool:
        return self.running and not self.dead_ranks()

    def dead_ranks(self) -> list[int]:
        """Ranks whose process is no longer alive (empty when healthy)."""
        return [
            rank for rank, p in enumerate(self._procs) if not p.is_alive()
        ]

    def start(self) -> "WorkerPool":
        if self._closed:
            from repro.runtime.engine import FanoutError  # imports us
            raise FanoutError("the pool is closed: no crew starts again")
        if self.running:
            return self
        pin_malloc_thresholds()  # the driver's and, forked, the crew's
        ctx = mp.get_context(START_METHOD)
        self._fabric = LinkFabric(self.nprocs, ctx)
        self._commands = [ctx.Queue() for _ in range(self.nprocs)]
        self._results = ctx.Queue()
        self._procs = []
        self.generation += 1
        for rank in range(self.nprocs):
            kwargs = dict(
                fabric=self._fabric,
                commands=self._commands[rank],
                result_queue=self._results,
            )
            p = ctx.Process(
                target=pool_worker_main,
                args=(rank, kwargs),
                name=f"repro-pool-{self.generation}-{rank}",
            )
            p.daemon = True
            p.start()
            self._procs.append(p)
        return self

    def close(self) -> None:
        """Stop the workers and release every queue, for good. Idempotent."""
        self._closed = True
        self._stop()

    def _stop(self) -> None:
        if not self.running:
            return
        for q in self._commands:
            try:
                q.put(("stop",))
            except Exception:  # pragma: no cover - closed/broken queue
                pass
        _reap(self._procs)
        self._procs = []
        if self._fabric is not None:
            self._fabric.shutdown()
            self._fabric = None
        for q in self._commands:
            q.cancel_join_thread()
            q.close()
        self._commands = []
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
            self._results = None
        self.seen_patterns.clear()

    def restart(self) -> "WorkerPool":
        """Tear down (terminating stragglers) and bring up a fresh crew of
        the same width — the cure for a dead or stalled one. Clears
        ``seen_patterns``, so contexts re-ship lazily."""
        self._stop()
        return self.start()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pattern bookkeeping -------------------------------------------
    def evict(self, pattern_ids) -> None:
        """Drop cached pattern contexts (and arena attachments) on every
        worker. The caller owns (and destroys) the arena segments."""
        pattern_ids = [
            pid for pid in pattern_ids if pid in self.seen_patterns
        ]
        if not pattern_ids or not self.running:
            return
        for q in self._commands:
            q.put(("evict", list(pattern_ids)))
        self.seen_patterns.difference_update(pattern_ids)

    # -- dispatch ------------------------------------------------------
    def abort_job(self, seq: int) -> None:
        """Inject a seq-tagged ABORT into every worker inbox.

        The ABORT's src is ``self.nprocs`` — outside the rank range — so
        it can never pass for a peer's. Workers abort exactly job ``seq``
        and report an aborted result; a rank already done with that job
        drops the frame as a straggler.
        """
        if self._fabric is None:
            return
        frame = wire.pack_abort(self.nprocs)
        for dst in range(self.nprocs):
            self._fabric.inboxes[dst].put((seq, frame))

    def run(self, job: PoolJob, timeout_s: float = 300.0) -> JobOutcome:
        """Run ``job`` on the resident crew: dispatch it, collect every
        rank's result. A job whose workers errored or aborted is reported
        failed.

        A dead worker process or ``timeout_s`` breaks the pool: the job is
        ABORTed and failed, the casualties land in its ``failed_ranks``
        (the dead ranks; on a timeout, every rank that never reported)
        and :attr:`last_error` records why; the job is over at once.
        Nothing is restarted here — the caller restarts or closes.
        """
        self.start()
        self.last_error = None
        out = JobOutcome(seq=job.seq)
        epoch = time.perf_counter()
        t0 = time.monotonic()
        stop_at = t0 + timeout_s
        for q in self._commands:
            q.put(("job", epoch, job))
        if job.context is not None:
            self.seen_patterns.add(job.pattern_id)
        #: Ranks that have not reported the job yet.
        waiting = set(range(self.nprocs))

        def break_pool(why: str, lost, died: bool) -> None:
            self.last_error = out.broke = why
            out.died = died
            if out.error is None:
                out.error = why
            out.failed_ranks.extend(r for r in lost if r in waiting)
            self.abort_job(job.seq)

        while waiting:
            now = time.monotonic()
            if now >= stop_at:
                break_pool(f"pool job timeout after {timeout_s:.0f}s",
                           range(self.nprocs), False)
                break
            # A dead process sends nothing: wake every 10 ms to look for
            # one, so a re-run starts at once.
            try:
                seq, res = self._results.get(
                    timeout=max(min(0.01, stop_at - now), 0.001))
            except queue_mod.Empty:
                dead = [r for r in self.dead_ranks() if r in waiting]
                if dead:
                    names = [self._procs[r].name for r in dead]
                    break_pool(
                        f"pool worker process(es) died: {names}", dead, True
                    )
                    break
                continue
            if seq != job.seq:  # pragma: no cover - stale result
                continue
            out.results[res.rank] = res
            if res.metrics.error is not None and not out.failed_ranks:
                # The first failure seen for the job is its cause; errors
                # that follow are peers' teardown hitting the fallout.
                out.failed_ranks.append(res.rank)
                if out.error is None:
                    out.error = res.metrics.error
            out.aborted |= res.metrics.aborted
            waiting.discard(res.rank)
            if not waiting:
                out.wall_s = time.monotonic() - t0
        return out
