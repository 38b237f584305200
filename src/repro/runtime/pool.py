"""The worker pool: the one process lifecycle of the runtime.

The paper's block fan-out method has one execution model — P processors
that own blocks and exchange completed ones — and :class:`WorkerPool` is
its one implementation: the only code that creates processes, a
:class:`~repro.runtime.links.LinkFabric`, a result queue, a collect loop
or a reap. A one-shot :func:`~repro.runtime.engine.run_mp_fanout` is a
pool that lives for one job; the factorization service
(:mod:`repro.service`) keeps one alive across jobs, which is the paper's
own motivating workload (a new numeric factorization per interior-point
step). Either way a job is a small message to a resident crew:

* **Pattern contexts** travel once. The first job of a sparsity pattern
  carries the block structure, task graph, owner plan, and arena name;
  workers cache them (and their arena attachment) keyed by pattern id, so
  every later job with the same pattern is *values-only*: a single float64
  array (the permuted matrix's csc data) per worker.
* **Batched dispatch.** A batch of jobs is one command put per worker;
  workers run the jobs back to back without returning to the driver in
  between, so a burst of small factorizations costs one dispatch
  round-trip instead of one per job.
* **Job-tagged frames.** Every queue item is ``(seq, item)`` where ``seq``
  is the global job number. A worker that runs ahead can already be
  fanning out job *k+1* while a peer still drains job *k*; the router
  parks frames for other jobs so the wrong :class:`Worker` never sees
  them (see :class:`InboxRouter`).
* **Arena-reuse barrier.** Shared-memory arenas are *per pattern* and
  live across jobs, so two jobs with the same pattern would race on the
  same slots. A job that reuses an in-flight arena waits until every rank
  announced completion of the previous job on that arena (DONE control
  frames, 64 bytes each). Inline jobs, and jobs on distinct arenas,
  pipeline freely. Frames bound for the driver — the result gather and
  abort-time checkpoints — always carry their payload, so the driver
  never reads a slot that a later job may have overwritten and salvaged
  frames outlive the arena.

Failure containment: a worker error poisons only its own job — the
erroring worker broadcasts ABORT for that job's tag, peers abort that job
and move on to the next one in the batch, and the driver reports the job
failed while the rest of the batch completes. A job may run the in-run
integrity protocol and resume from a checkpoint (``PoolJob.recovery`` /
``checkpoint``, see :mod:`repro.runtime.recovery`), and
:class:`~repro.runtime.faults.FaultPlan` injection threads into
individual jobs so every layer above is chaos-testable. Per-job
deadlines are enforced driver-side: an expired job gets a seq-tagged
ABORT injected into every inbox, so exactly that job aborts while its
batch keeps running. Workers heartbeat on the result queue before every
job, so the driver can tell a stalled crew from a slow one.

Who heals: :meth:`WorkerPool.run_batch` only *reports*. A dead process
or a global timeout ends the batch, ABORTs what was still running, and
is recorded in :attr:`WorkerPool.last_error` and in each unfinished
job's :attr:`JobOutcome.failed_ranks`; the crew is then in an unknown
state, and :func:`repro.runtime.recovery.settle` — the one caller of
:meth:`WorkerPool.heal` — replaces it. Any other caller closes the pool.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.config import RunConfig
from repro.runtime import wire
from repro.runtime.links import Link, LinkFabric
from repro.runtime.metrics import WorkerMetrics
from repro.runtime.worker import POLL_S, Worker, WorkerResult

__all__ = [
    "HEARTBEAT_SEQ",
    "PatternContext",
    "PoolJob",
    "JobOutcome",
    "WorkerPool",
]


#: Result-queue tag used by worker heartbeats (never a valid job seq).
HEARTBEAT_SEQ = -1

#: ``fork`` shares the parent's imports with the crew for free; platforms
#: without it get ``spawn``.
START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Job descriptions (driver -> worker)
# ----------------------------------------------------------------------
@dataclass
class PatternContext:
    """Everything a worker must hold to run jobs of one sparsity pattern.

    Shipped once per pattern per pool incarnation; ``indptr``/``indices``
    describe the *permuted* matrix, so later jobs need only a values
    array. ``arena_name`` names the driver-owned shared-memory segment
    for the pattern (None on the inline transport).
    """

    pattern_id: str
    structure: object
    tg: object
    owners: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    shape: tuple
    arena_name: str | None = None
    #: The knobs the pattern's jobs run under; workers read ``schedule``,
    #: ``steal_seed``, the stall watchdog and the renegotiation backoff
    #: from here.
    config: RunConfig = field(default_factory=RunConfig)


@dataclass
class PoolJob:
    """One factorization (or warm solve) dispatched to the pool.

    ``values`` is the csc ``data`` array of the permuted input matrix.
    ``context`` is present exactly when this pool incarnation has not seen
    the pattern yet. ``wait_for`` is the seq of the latest earlier job
    sharing this job's arena (barrier); ``announce`` makes every rank
    broadcast a DONE control frame tagged with this job when it finishes,
    so later same-arena jobs can wait on it. ``deadline`` is an absolute
    ``time.monotonic()`` instant past which the driver aborts the job
    (``time.monotonic`` is system-wide on Linux, so workers and driver
    agree on it). ``fault_plan`` injects deterministic faults into this
    job's workers.

    ``recovery`` turns on the in-run integrity protocol (CRC reject +
    NACK/retransmit under the pattern config's renegotiation backoff +
    duplicate suppression + the DONE linger barrier) and makes
    erroring/aborted ranks ship their completed blocks
    home as a checkpoint; ``checkpoint`` maps block ids to such frames
    from a previous attempt — those blocks are preloaded, their tasks
    skipped. ``rhs`` on a factor job appends the distributed triangular
    solve to the factor phase.

    ``kind="solve"`` runs the distributed triangular solve against the
    rank's *resident* factor — the :class:`~repro.runtime.worker.Worker`
    retained from the pattern's last clean factor job. Only ``rhs`` (the
    permuted right-hand-side panel) travels; no pattern context, no
    matrix values, no factor blocks. A solve job on a rank with no
    resident factor fails with a typed protocol error rather than
    recomputing anything.
    """

    seq: int
    pattern_id: str
    values: np.ndarray
    context: PatternContext | None = None
    wait_for: int | None = None
    announce: bool = False
    trace_capacity: int = 0
    deadline: float | None = None
    fault_plan: object | None = None
    kind: str = "factor"
    rhs: np.ndarray | None = None
    recovery: bool = False
    checkpoint: dict[int, bytes] | None = None


@dataclass
class JobOutcome:
    """Driver-side result of one pooled job."""

    seq: int
    results: dict = field(default_factory=dict)  # rank -> WorkerResult
    error: str | None = None
    aborted: bool = False
    expired: bool = False
    wall_s: float = 0.0
    #: The ranks the failure is attributed to: a rank is here iff its
    #: process died, it never reported before the batch timed out, or it
    #: was the first to raise. A rank that stopped because a peer failed
    #: is merely aborted — whatever exception its own teardown then hit —
    #: so a restart shrinks the crew by the real casualties only.
    failed_ranks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.aborted


# ----------------------------------------------------------------------
# Job-tagged views over the persistent fabric
# ----------------------------------------------------------------------
class InboxRouter:
    """Demultiplexes one worker's tagged inbox by job sequence number.

    Frames for the requested job are returned; frames for other (later)
    jobs are parked until their job asks for them; frames older than
    ``min_seq`` — stragglers of fully-collected batches, e.g. late DONE
    announcements — are dropped.
    """

    def __init__(self, inbox):
        self.inbox = inbox
        self.parked: dict[int, deque] = {}
        self.min_seq = 0

    def prune(self, min_seq: int) -> None:
        self.min_seq = min_seq
        for tag in [t for t in self.parked if t < min_seq]:
            del self.parked[tag]

    def _accept(self, tag: int, item, seq: int):
        if tag == seq:
            return item
        if tag >= self.min_seq:
            self.parked.setdefault(tag, deque()).append(item)
        return None

    def get_nowait(self, seq: int):
        q = self.parked.get(seq)
        if q:
            return q.popleft()
        while True:
            tag, item = self.inbox.get_nowait()  # raises Empty when drained
            got = self._accept(tag, item, seq)
            if got is not None:
                return got

    def get(self, seq: int, timeout: float | None = None):
        q = self.parked.get(seq)
        if q:
            return q.popleft()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue_mod.Empty
            tag, item = self.inbox.get(timeout=remaining)
            got = self._accept(tag, item, seq)
            if got is not None:
                return got


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

    def close(self) -> None:  # pragma: no cover - Worker never closes links
        pass


class _JobInbox:
    """Read-side wrapper: the inbox one :class:`Worker` (one job) sees."""

    __slots__ = ("router", "seq")

    def __init__(self, router: InboxRouter, seq: int):
        self.router = router
        self.seq = seq

    def get(self, timeout: float | None = None):
        return self.router.get(self.seq, timeout)

    def get_nowait(self):
        return self.router.get_nowait(self.seq)


class JobFabric:
    """A per-job view of the persistent :class:`LinkFabric`.

    Fresh :class:`Link` objects per job keep the per-link counters
    job-local (they land in that job's metrics); the underlying queues
    persist for the life of the pool.
    """

    def __init__(self, base: LinkFabric, router: InboxRouter, seq: int):
        self.base = base
        self.router = router
        self.seq = seq
        self.nprocs = base.nprocs

    def inbox(self, rank: int) -> _JobInbox:
        return _JobInbox(self.router, self.seq)

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
    """The resident process: runs batches of jobs until told to stop."""

    def __init__(self, rank, fabric, commands, result_queue):
        self.rank = rank
        self.fabric = fabric
        self.commands = commands
        self.result_queue = result_queue
        self.router = InboxRouter(fabric.inbox(rank))
        self.patterns: dict[str, tuple] = {}  # pid -> (context, arena)
        self.done_seen: dict[int, set] = {}
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
                _, epoch, jobs = cmd
                if jobs:
                    self.router.prune(jobs[0].seq)
                    self.done_seen = {
                        s: v for s, v in self.done_seen.items()
                        if s >= jobs[0].seq
                    }
                for job in jobs:
                    self._run_job(job, epoch)
        finally:
            for _, arena in self.patterns.values():
                if arena is not None:
                    arena.close()
            self.result_queue.cancel_join_thread()

    def _evict(self, pattern_ids) -> None:
        for pid in pattern_ids:
            self.resident.pop(pid, None)
            ctx_arena = self.patterns.pop(pid, None)
            if ctx_arena is not None and ctx_arena[1] is not None:
                ctx_arena[1].close()

    def _install(self, context: PatternContext):
        arena = None
        if context.arena_name is not None:
            from repro.runtime.arena import BlockArena

            arena = BlockArena.attach(context.tg, context.arena_name)
        self.patterns[context.pattern_id] = (context, arena)
        return self.patterns[context.pattern_id]

    # -- one job -------------------------------------------------------
    def _run_job(self, job: PoolJob, epoch: float) -> None:
        # Heartbeat: tells the driver this rank is alive and which job it
        # is about to run; rides the result queue under a reserved tag.
        self.result_queue.put(
            (HEARTBEAT_SEQ, (self.rank, job.seq, time.monotonic()))
        )
        fabric = JobFabric(self.fabric, self.router, job.seq)
        results = _TaggedQueue(self.result_queue, job.seq)
        try:
            if job.kind == "solve":
                worker = self._resident_worker(job, fabric, results)
            else:
                worker = self._factor_worker(job, epoch, fabric, results)
            if job.wait_for is not None:
                self._await_done(
                    job.wait_for, worker.context.config.stall_timeout_s
                )
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
        # DONE announcements consumed mid-job by the Worker count toward
        # this job's barrier.
        if worker.done_peers:
            self.done_seen.setdefault(job.seq, set()).update(
                worker.done_peers
            )
        if job.announce:
            self._announce(job.seq)

    def _resident_worker(self, job: PoolJob, fabric, results) -> Worker:
        """The pattern's retained, already-factored worker, re-armed for
        a warm solve: only the RHS panel travelled in the job; the factor
        blocks are already in this process (arena slots on shm, local
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

    def _announce(self, seq: int) -> None:
        """Tell every peer this rank is done with job ``seq`` — sent even
        after an error/abort so no peer blocks on a barrier forever."""
        frame = wire.pack_done(self.rank)
        for dst in range(self.fabric.nprocs):
            if dst != self.rank:
                self.fabric.inboxes[dst].put((seq, frame))

    def _await_done(self, seq: int, patience_s: float) -> None:
        """Block (at most ``patience_s``, the waiting job's stall watchdog)
        until every peer announced completion of job ``seq``.

        ABORT frames for ``seq`` count as completion — the erroring peer
        will never send DONE, but it *is* finished with the arena.
        """
        peers = set(range(self.fabric.nprocs)) - {self.rank}
        seen = self.done_seen.setdefault(seq, set())
        deadline = time.monotonic() + patience_s
        while not peers <= seen:
            try:
                item = self.router.get(seq, timeout=POLL_S)
            except queue_mod.Empty:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {self.rank} barrier timeout: peers "
                        f"{sorted(peers - seen)} never finished job {seq}"
                    )
                continue
            for frame in item if isinstance(item, list) else [item]:
                try:
                    msg = wire.unpack(frame, copy=False)
                except wire.WireError:
                    continue
                if msg.kind in (wire.DONE, wire.ABORT):
                    seen.add(msg.src)

    def _report_error(self, seq: int, text: str) -> None:
        metrics = WorkerMetrics(rank=self.rank)
        metrics.error = text
        self.result_queue.put(
            (seq, WorkerResult(self.rank, metrics, []))
        )


def pool_worker_main(rank: int, kwargs: dict) -> None:
    """Process entry point (module-level for the spawn start method)."""
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
        outcomes = pool.run_batch([PoolJob(...), ...])
        pool.close()

    The pool tracks which pattern ids this incarnation has shipped
    (:attr:`seen_patterns`); callers include a :class:`PatternContext` on
    a job exactly when its pattern is not in that set. :meth:`restart`
    replaces dead processes with a fresh fabric and clears the set, so
    contexts are re-shipped lazily.
    """

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        #: The width the pool was configured with. :meth:`heal` shrinks
        #: :attr:`nprocs` below this after process deaths; :meth:`regrow`
        #: restores it once the crew is quiescent again.
        self.configured_nprocs = nprocs
        self.seen_patterns: set[str] = set()
        self.generation = 0
        #: Why the last :meth:`run_batch` broke the pool (None when it
        #: ran clean). Callers use this to distinguish per-job failures
        #: from pool-level breakage; after a breakage the crew must be
        #: replaced (:meth:`heal`) or released (:meth:`close`).
        self.last_error: str | None = None
        #: rank -> last heartbeat instant (``time.monotonic``), updated
        #: as batches run; survives restarts for post-mortem inspection.
        self.last_heartbeats: dict[int, float] = {}
        self._procs: list = []
        self._commands: list = []
        self._results = None
        self._fabric: LinkFabric | None = None

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
        if self.running:
            return self
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
        """Stop the workers and release every queue. Idempotent."""
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

    def restart(self, nprocs: int | None = None) -> "WorkerPool":
        """Tear down (terminating stragglers) and bring up a fresh crew,
        ``nprocs`` wide if given. Clears ``seen_patterns``, so contexts
        re-ship lazily; owners planned for another width must be
        re-planned."""
        self.close()
        self.nprocs = nprocs or self.nprocs
        return self.start()

    def heal(self, lost: int | None = None) -> "WorkerPool":
        """Restart on ``P - lost`` workers (floor 1); ``lost`` defaults to
        the number of dead processes. With nothing lost this is a plain
        restart — the cure for a stalled-but-alive crew."""
        if lost is None:
            lost = len(self.dead_ranks())
        return self.restart(max(1, self.nprocs - lost))

    def regrow(self) -> "WorkerPool":
        """Restore a healed (shrunken) pool to its configured width. Safe
        only between batches; no-op while the pool is at full width."""
        if self.nprocs >= self.configured_nprocs:
            return self
        return self.restart(self.configured_nprocs)

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
        it can never masquerade as a real peer in a DONE barrier. Workers
        abort exactly job ``seq`` (whether mid-run or not yet started)
        and report an aborted result; the rest of the batch is untouched.
        """
        if self._fabric is None:
            return
        frame = wire.pack_abort(self.nprocs)
        for dst in range(self.nprocs):
            self._fabric.inboxes[dst].put((seq, frame))

    def run_batch(
        self, jobs: list[PoolJob], timeout_s: float = 300.0
    ) -> dict[int, JobOutcome]:
        """Run ``jobs`` back to back on the resident crew.

        Returns one :class:`JobOutcome` per job seq. A job whose workers
        errored or aborted is reported failed but does not poison the
        rest of the batch; a job past its ``deadline`` is seq-aborted and
        reported ``expired``, likewise without poisoning the batch.

        A dead worker process or the global ``timeout_s`` breaks the
        batch: every unfinished job is ABORTed and failed, the casualties
        land in its ``failed_ranks`` (the dead ranks; on a timeout, every
        rank that never reported) and :attr:`last_error` records why.
        After a death the loop lingers up to the ``dead_grace_s`` of the
        contexts shipped with this batch, so the survivors can abort and
        ship their completed-block checkpoints. Nothing is restarted
        here — the caller heals or closes.
        """
        if not jobs:
            return {}
        if not self.running:
            self.start()
        self.last_error = None
        epoch = time.perf_counter()
        t0 = time.monotonic()
        for q in self._commands:
            q.put(("batch", epoch, jobs))
        for job in jobs:
            if job.context is not None:
                self.seen_patterns.add(job.pattern_id)
        outcomes = {
            job.seq: JobOutcome(seq=job.seq) for job in jobs
        }
        #: seq -> ranks that have not reported that job yet.
        pending = {job.seq: set(range(self.nprocs)) for job in jobs}
        job_deadlines = {
            job.seq: job.deadline for job in jobs if job.deadline is not None
        }
        #: When collecting stops: the global deadline, pulled in to the
        #: grace window once a process death has broken the batch.
        stop_at = t0 + timeout_s
        dead_grace_s = max(
            (job.context.config.dead_grace_s or 0.0
             for job in jobs if job.context is not None),
            default=0.0,
        )

        def break_batch(why: str, casualties) -> None:
            self.last_error = why
            for seq, waiting in list(pending.items()):
                out = outcomes[seq]
                if out.error is None:
                    out.error = why
                out.failed_ranks.extend(r for r in casualties if r in waiting)
                self.abort_job(seq)
                waiting.difference_update(casualties)
                if not waiting:
                    del pending[seq]

        while pending:
            now = time.monotonic()
            if now >= stop_at:
                if self.last_error is None:
                    break_batch(
                        f"pool batch timeout after {timeout_s:.0f}s: "
                        f"{len(pending)} job(s) incomplete",
                        range(self.nprocs),
                    )
                break
            # Per-job deadlines: abort exactly the expired job. Workers
            # that already shipped results for it are unaffected; the
            # outcome stays failed even if stragglers later succeed.
            wait = min(0.1, stop_at - now)
            for seq in [s for s in job_deadlines if s not in pending]:
                del job_deadlines[seq]
            for seq, dl in job_deadlines.items():
                out = outcomes[seq]
                if now > dl and not out.expired:
                    out.expired = True
                    if out.error is None:
                        out.error = (
                            f"job {seq} deadline exceeded "
                            f"({now - dl:.3f}s past)"
                        )
                    self.abort_job(seq)
                if not out.expired:
                    wait = min(wait, max(dl - now, 0.005))
            try:
                seq, res = self._results.get(timeout=max(wait, 0.001))
            except queue_mod.Empty:
                dead = [
                    r for r in self.dead_ranks()
                    if any(r in waiting for waiting in pending.values())
                ]
                if dead:
                    if self.last_error is None:
                        stop_at = min(
                            stop_at, time.monotonic() + dead_grace_s
                        )
                    names = [self._procs[r].name for r in dead]
                    break_batch(
                        f"pool worker process(es) died: {names}", dead
                    )
                continue
            if seq == HEARTBEAT_SEQ:
                rank, _jseq, t = res
                self.last_heartbeats[rank] = t
                continue
            out = outcomes.get(seq)
            if out is None:  # pragma: no cover - stale result
                continue
            out.results[res.rank] = res
            if res.metrics.error is not None and not out.failed_ranks:
                # The first failure seen for the job is its cause; errors
                # that follow are peers' teardown hitting the fallout.
                out.failed_ranks.append(res.rank)
                if out.error is None:
                    out.error = res.metrics.error
            if res.metrics.aborted:
                out.aborted = True
            waiting = pending.get(seq)
            if waiting is not None:
                waiting.discard(res.rank)
                if not waiting:
                    out.wall_s = time.monotonic() - t0
                    del pending[seq]
        return outcomes
