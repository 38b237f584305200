"""The worker: §2.3's fan-out protocol as one event loop over real processes.

Each worker executes every block operation whose destination block it
owns. Its *local* columns (owned whole and updated only from local columns,
as every domain column is) it factors first, in one sequential pass
(``_run_local``), and solves in one pass per direction (``_sweep``); the
rest it runs grouped by share — the blocks of one column it owns: one
panel factor PFAC(K) per share, one panel update PMOD(K,J) per source and
destination panel, one solve task per panel or share — tracking readiness
per share (:mod:`repro.fanout.dispatch`, :mod:`repro.runtime.solve_plan`).
:class:`Worker` writes the loop once:

* :meth:`Worker.arm` wires a rank to one job — a factor job or a warm
  solve on a retained worker — and starts its wire-kind → handler table;
* :meth:`Worker.receive` is the one receive prologue (decode, CRC check,
  ``BLOCK_REF`` descriptor checked against the arena; an undecodable
  frame raises its :class:`~repro.runtime.wire.WireError`), then a lookup
  in that table;
* ``_pump`` runs every phase of a job (:meth:`Worker.phases`) on the
  non-blocking :meth:`Worker.step`: drain the inbox when that can matter,
  run one ready task, else the phase's idle hook; then wait ``POLL_S``
  for a frame, then check for a stall;
* ``_account`` is the post-task step of every run of tasks, ``_span`` the
  only timeline / trace-span emitter, and :meth:`Worker.run` ends in the
  one ship-home epilogue, one :class:`WorkerResult`, after an ABORT
  broadcast on error so peers exit promptly instead of deadlocking.

State and handlers are grouped by *plane* — factor, control (ABORT,
DONE), steal (the dynamic schedule), solve — each registering its wire
kinds when armed; ``docs/ARCHITECTURE.md`` tabulates *wire kind → plane
→ handler → what it may unblock*. Because ``step`` never blocks, tests
drive several ranks in one thread over an in-memory fabric
(``LinkFabric(P, queue)``) and reach every handler without a process.
"""

from __future__ import annotations

import os
import queue as queue_mod
import random
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.numeric.blockfact import BlockCholesky
from repro.numeric.solve import (
    block_backward,
    bsolve_kernel,
    bupd_kernel,
    fsolve_kernel,
    fupd_kernel,
    permute_rhs,
    solve_flops,
)
from repro.fanout.dispatch import Readiness
from repro.runtime import wire
from repro.runtime.faults import FaultInjector
from repro.runtime.metrics import TimelineRecorder, WorkerMetrics
from repro.runtime.scheduler import ReadyScheduler
from repro.runtime.solve_plan import (
    BSOLVE, BUPD, FSOLVE, FUPD, SOLVE_KIND_NAMES, SWEEP, SolvePlan,
)
from repro.runtime.trace import TraceRecorder, WorkerTrace

#: Inbox wait per idle tick; bounds how late a worker notices a frame.
POLL_S = 0.002
#: A rank with ready tasks reads its inbox (a ``poll()`` syscall, about
#: one 25 us task) every this many steps: the wait of ABORT and steal.
DRAIN_EVERY = 16
#: The per-worker no-progress watchdog, in seconds.
STALL_S = 30.0
#: The watchdog of a job whose links inject message faults: a dropped
#: frame ends the attempt this soon, and the job re-runs from scratch.
FAULTY_STALL_S = 0.5


class _Abort(Exception):
    """A peer told us to stop."""


@dataclass
class WorkerResult:
    """What a worker sends home: metrics plus, from a clean factor job,
    its owned blocks — ``held`` on both transports, their ``words`` too on
    inline, where the store is private; none on error or abort."""

    rank: int
    metrics: WorkerMetrics
    trace: WorkerTrace | None = None
    #: Solve-phase output, ``(rows, x)``: the rows of the panels whose
    #: diagonal the rank owns (permuted coordinates) and their solution,
    #: ``len(rows) x nrhs``. ``None`` when no solve ran.
    solution: tuple[np.ndarray, np.ndarray] | None = None
    #: A clean factor job: ``(blocks, crcs)`` — the owned block ids,
    #: ascending, and the CRC32 of each block's stored bytes as the rank
    #: published it.
    held: tuple[np.ndarray, np.ndarray] | None = None
    #: Inline only: the stored words of the ``held`` blocks, laid end to
    #: end in their order (on shm they stay in the arena's store).
    words: np.ndarray | None = None


class Phase(NamedTuple):
    """What one run of the pump needs to know: ``left()`` is falsy once
    the phase is over, else how much of ``what`` is outstanding (the stall
    error quotes both); ``ready`` / ``run`` are its task queue and runner;
    ``idle()`` is a non-blocking hook for a step that moved nothing."""

    what: str
    left: Callable[[], object]
    ready: object = ()
    run: Callable[[int], None] | None = None
    idle: Callable[[], None] | None = None
    idle_cat: str = "idle"


class Worker:
    """One rank of the message-passing runtime.

    Takes the job as the pool shipped it: the pattern's
    :class:`~repro.runtime.pool.PatternContext` (block structure, task
    graph, owners, the :class:`~repro.config.RunConfig`, and the permuted
    matrix's index arrays — scattering ``job.values`` into initial block
    data stands in for the host distributing ``A``), the
    :class:`~repro.runtime.pool.PoolJob` (values, rhs, the fault plan and
    the trace capacity) and the pattern's attached ``arena`` (shm, whose
    store this rank factors in place; None means inline, a private store).
    """

    def __init__(self, rank: int, context, job, arena, fabric, result_queue,
                 epoch: float = 0.0):
        self.rank = rank
        self.context = context
        self.tg = context.tg
        self.owners = np.asarray(context.owners)
        self.arena = arena
        self.epoch = epoch
        #: ``"dynamic"`` adds work stealing on top of the owner-computes
        #: map (see ``docs/SCHEDULING.md``).
        self.dynamic = (context.config.schedule == "dynamic"
                        and fabric.nprocs > 1)
        #: Blocks whose final factored value is present locally (owned
        #: completions, received frames): a second frame for one is a
        #: protocol breach, and an inline thief skips installing it as a
        #: source.
        self.have: set[int] = set()
        #: The wire-kind → handler table: each plane registers its kinds
        #: as it is armed; a job that arms no solve refuses solve frames.
        self.handlers: dict[int, Callable] = {}
        self.arm(job, fabric, result_queue)

    def arm(self, job, fabric, result_queue) -> None:
        """Wire this rank to one job: fabric, links, inbox, fault injector,
        fresh metrics and recorders, fresh control state. The one routine
        behind a factor job (from the constructor) and a warm solve on a
        retained, already-factored worker (the pool calls it, then run)."""
        self.job = job
        self.result_queue = result_queue
        self.inbox = fabric.inbox(self.rank)
        self.links = fabric.outgoing(self.rank)
        plan = job.fault_plan
        self.injector = None
        self.stall_s = STALL_S
        if plan is not None and plan.active:
            self.injector = FaultInjector(plan, self.rank)
            self.links = self.injector.wrap_links(self.links)
            if plan.message_faults_active:
                self.stall_s = FAULTY_STALL_S
        spec = plan.crash_for(self.rank) if plan is not None else None
        self._crash_after = None if spec is None else int(spec.after_tasks)
        self._crash_hard = spec is not None and bool(spec.hard)
        self._slow_s = plan.slow_for(self.rank) if plan is not None else 0.0
        self.metrics = WorkerMetrics(rank=self.rank)
        self.timeline = TimelineRecorder()
        cap = job.trace_capacity
        #: Structured event recorder, or None (tracing off — the hot path
        #: then pays one identity check per event site, no allocation).
        self.trace = TraceRecorder(cap) if cap else None
        #: Solve-phase task counter (stays 0 on a job without an rhs).
        self.solve_executed = 0
        self._undrained = 0  # steps since the last inbox drain
        self.handlers.update(dict.fromkeys(wire.SOLVE_KINDS, self._no_rhs))
        self._arm_control()

    # ------------------------------------------------------------------
    # The job: set up, pump the phases, ship home
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run the armed job and ship the one result home; never raises."""
        m = self.metrics
        factor = self.job.kind == "factor"
        solution = held = words = None
        try:
            t0 = self._now()
            self._setup(factor)
            m.setup_s = self._now() - t0
            for phase in self.phases():
                self._pump(phase)
            if factor:
                t0 = self._now()
                held, words = self._gather(self.plan.owned)
                m.gather_s = self._now() - t0
            if self.job.rhs is not None:
                solution = (self.splan.rows, self._z[self.splan.rows])
        except _Abort:
            m.aborted = True
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            m.error = traceback.format_exc()
            m.error_type = type(exc).__name__
            self._broadcast_abort()
        failed = m.aborted or m.error is not None
        self._finalize()
        trace = None if self.trace is None else self.trace.snapshot(self.rank)
        self.result_queue.put(
            WorkerResult(self.rank, m, trace, solution, held, words))
        if failed:
            # Don't hang at exit flushing frames to peers that may be gone.
            for link in self.links.values():
                link.queue.cancel_join_thread()

    def _setup(self, factor: bool) -> None:
        """Arm the planes of this job. A factor job scatters its share of
        ``A`` into the words of its own blocks of its store — a private,
        zeroed one inline; on shm the arena's, which every rank factors in
        place — and starts factor and steal state afresh; a warm solve
        keeps the resident factor and arms only a new solve plane."""
        ctx, job = self.context, self.job
        if factor:
            if job.values.shape != ctx.indices.shape:
                raise ValueError("values disagree with the pattern")
            self.chol = (BlockCholesky.shell(ctx.structure)
                         if self.arena is None else self.arena.factor)
            self.chol.scatter(*ctx.init_map(self.rank), job.values)
            self._arm_factor()
            self._arm_steal()
        # Armed during factor setup because solve frames may arrive while
        # this rank is still factoring (a fast peer enters its solve
        # phase as soon as its own factor tasks are done).
        if job.rhs is not None:
            self._arm_solve(job.rhs)

    def phases(self) -> Iterator[Phase]:
        """The armed job's phases, in order. Advancing the generator
        *enters* the next phase (the linger broadcasts DONE first)."""
        if self.job.kind == "factor":
            self._run_local()
            yield Phase(
                "owned tasks to run", lambda: self.n_owned - self.executed,
                self.scheduler, self._execute,
                idle=self._request_steal if self.dynamic else None,
            )
            if self.dynamic:
                self._announce_done()
                yield Phase("peers not DONE",
                            lambda: set(self.links) - self.done_peers)
        if self.job.rhs is not None:
            yield Phase(
                "solve tasks to run",
                lambda: self.splan.ntasks - self.solve_executed,
                self.solve_scheduler, self._solve_execute,
                idle_cat="solve_idle",
            )

    def step(self, phase: Phase) -> bool:
        """One non-blocking turn of the pump: handle every queued frame —
        on every step while nothing is ready, else on every
        ``DRAIN_EVERY``-th — then run at most one ready task; if nothing
        moved, give the phase's idle hook a chance. Returns whether
        anything progressed."""
        progressed = False
        self._undrained += 1
        if not phase.ready or self._undrained >= DRAIN_EVERY:
            self._undrained = 0
            progressed = self._drain_inbox()
        if phase.ready:
            phase.run(phase.ready.pop())
            progressed = True
            if not phase.ready:
                # About to go idle (or wait on the inbox): ship any
                # coalesced frame batches so consumers proceed.
                self._flush_pending()
        elif not progressed and phase.idle is not None:
            phase.idle()
        return progressed

    def _pump(self, phase: Phase) -> None:
        """The one event loop: step, else wait, else check for a stall —
        until nothing of the phase is left. Leaving, it ships everything
        its links hold back."""
        start = last_progress = self._now()
        try:
            while left := phase.left():
                progressed = self.step(phase) or self._wait(phase.idle_cat)
                now = self._now()
                if progressed:
                    last_progress = now
                elif now - last_progress > self.stall_s:
                    raise RuntimeError(
                        f"worker {self.rank} stalled: {left} {phase.what}, "
                        f"no messages for {self.stall_s:g}s (deadlock?)"
                    )
        finally:
            self.metrics.pump_s += self._now() - start
        self._flush_links()

    def _flush_pending(self) -> None:
        """Ship every link's coalesced batch (does *not* release frames a
        fault injector is deliberately delaying)."""
        for link in self.links.values():
            link.flush_pending()

    def _flush_links(self) -> None:
        """Ship every link's coalesced batch and the frames a fault
        injector delayed, so a delay reorders frames but never withholds
        one."""
        for link in self.links.values():
            link.flush()

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    def _span(self, seg: str, t0: float, cat: str, name: str,
              args: dict | None = None, t1: float | None = None) -> None:
        """Add the span begun at ``t0`` (ending now, unless the caller
        measured ``t1``) to the ``seg`` seconds total and, when tracing,
        record it as trace span ``cat``/``name`` — the only per-segment
        record. Call sites pass a formatted ``name`` and ``args`` as
        ``self.trace and …``, so neither is built when tracing is off."""
        if t1 is None:
            t1 = self._now()
        self.timeline.add(seg, t0, t1)
        if self.trace is not None:
            self.trace.span(cat, name, t0, t1, args)

    def _account(self, seg: str, kinds, t0: float, t1: float, work: int,
                 flops: int, name: str, args: dict | None,
                 ops: int = 1) -> None:
        """Post-task accounting of a run of tasks, ``kinds`` its count
        per kind — an owned or stolen op or the local pass (``ops=0``), or
        (``seg="solve_busy"``) a solve task or sweep: ledger, busy span,
        injected faults. The crash trigger counts the tasks this rank
        completed as owner or solver and fires at the next run here."""
        m, n = self.metrics, sum(kinds.values())
        if seg == "busy":
            m.ops_executed += ops
            m.tasks_executed += n
            counts = m.task_counts
            m.flops_executed += flops
            m.work_executed += work
            self._span(seg, t0, "task", name, args, t1)
        else:
            m.solve_tasks_executed += n
            counts = m.solve_task_counts
            m.solve_work_executed += work
            self._span(seg, t0, "solve_task", name, args, t1)
        for kind, c in kinds.items():
            counts[kind] += c
        if self._slow_s > 0.0:  # the plan's sleep is per task, not per op
            if self.injector is not None:
                self.injector.injected["slow"] += n
            if self.trace is not None:
                self.trace.mark("slow", self._now(), {"s": self._slow_s * n})
            time.sleep(self._slow_s * n)
        done = self.executed + self.solve_executed
        if self._crash_after is not None and done >= self._crash_after:
            if self.trace is not None:
                self.trace.mark("crash", self._now(), {
                    "after": done, "hard": self._crash_hard, "seg": seg})
            if self._crash_hard:
                # A stand-in for a segfault/OOM kill: vanish without
                # reporting. The driver notices the dead child.
                os._exit(17)
            raise RuntimeError(
                f"injected failure on worker {self.rank} after {done} tasks"
            )

    # -- blocks --------------------------------------------------------
    def _block(self, b: int) -> np.ndarray:
        """Block ``b``'s current local value."""
        I, J = self.plan.coords[b]
        return self.chol.diag[J] if I == J else self.chol.below[J][I]

    def _store(self, b: int, array: np.ndarray | None,
               final: bool = True) -> None:
        """Install ``array`` as block ``b`` — the one place a frame or a
        steal payload lands in the factor; None (a descriptor's payload)
        for a block already in place in the shared store. ``final=False``
        installs a migrated task's *partial* destination state."""
        self.chol.install(*self.plan.coords[b], array, final)

    # ------------------------------------------------------------------
    # Receiving: one prologue, then the table
    # ------------------------------------------------------------------
    def _handle_item(self, item) -> bool:
        """Process one inbox item: a bare frame or a coalesced batch."""
        got = False
        for frame in item if isinstance(item, list) else (item,):
            got = self.receive(frame) or got
        return got

    def _drain_inbox(self) -> bool:
        got = False
        while True:
            try:
                item = self.inbox.get_nowait()
            except queue_mod.Empty:
                return got
            got = self._handle_item(item) or got

    def _wait(self, cat: str) -> bool:
        """Block up to ``POLL_S`` for one inbox item (an idle span),
        releasing any delayed frame first."""
        if self.injector is not None:
            self._flush_links()
        t0 = self._now()
        try:
            item = self.inbox.get(timeout=POLL_S)
        except queue_mod.Empty:
            item = None
        self._span(cat, t0, cat, "idle")
        return item is not None and self._handle_item(item)

    def receive(self, frame: bytes) -> bool:
        """Take one frame in: decode and CRC-check it, check a
        ``BLOCK_REF`` descriptor against the arena (block table and block
        CRC), then call its kind's handler with ``(msg, len(frame), t0)``.
        True if it made progress (i.e. could unblock a task). A frame that
        does not decode — a CRC or block-CRC mismatch included — raises its
        typed :class:`~repro.runtime.wire.WireError`: fail-stop, the job
        aborts and re-runs."""
        t0 = self._now()
        msg = wire.unpack(frame, copy=False)
        if msg.kind == wire.BLOCK_REF:
            if self.arena is None:
                raise wire.WireError(
                    "BLOCK_REF descriptor received but no arena is "
                    "attached (transport mismatch)"
                )
            self.arena.check(msg)
        return self.handlers[msg.kind](msg, len(frame), t0)

    def _no_rhs(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        """Handler of every solve kind on a job that armed no solve."""
        raise RuntimeError(
            f"worker {self.rank} received a solve frame "
            f"(kind={msg.kind}) but carries no right-hand side"
        )

    # ------------------------------------------------------------------
    # Factor plane: executing and fanning out
    # ------------------------------------------------------------------
    # Readiness and recipients are ``repro.fanout.protocol``'s — the
    # simulator's rules, so a mapping yields the same message set — past
    # the local pass coarsened to the share by the context's compiled
    # ``DispatchPlan``, whose ``self.readiness`` counts the few share
    # events each op waits for. Each finished block travels in its own
    # frame.

    def _arm_factor(self) -> None:
        self.handlers.update({wire.BLOCK: self._on_block,
                              wire.BLOCK_REF: self._on_block})
        self.plan = plan = self.context.dispatch_plan(self.rank)
        self.n_owned = plan.n_owned
        #: Per published block, the CRC32 of its stored bytes.
        self._crc: dict[int, int] = {}
        self.scheduler = ReadyScheduler()
        #: Owned tasks finished: run here or returned by a thief.
        self.executed = 0
        ntasks, push = self.tg.ntasks, self.scheduler.push
        self.readiness = Readiness(plan, lambda o: push(ntasks + o))

    def _on_block(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        """``BLOCK`` (or a checked ``BLOCK_REF``): a completed block
        arrived — install it; a descriptor's block is already where its
        owner wrote it — and count it toward its share. Each block
        arrives once; a repeat raises its typed
        :class:`~repro.runtime.wire.WireError` (fail-stop, like a corrupt
        frame)."""
        b = msg.block
        if b in self.have:
            raise wire.WireError(
                "worker %d: block %d (%d,%d) arrived again from rank %d"
                % (self.rank, b, *self.plan.coords[b], msg.src)
            )
        m = self.metrics
        # Logical bytes (what the predictor charges) vs wire bytes (what
        # actually crossed the queue — 64 for a descriptor).
        m.messages_received += 1
        m.bytes_received += msg.nbytes
        m.wire_bytes_received += nbytes
        self.have.add(b)
        self._store(b, msg.payload)
        self.readiness.arrived(b)
        tr = self.trace
        self._span(
            "comm", t0, "recv", tr and "recv(%d,%d)" % self.plan.coords[b],
            tr and {"block": b, "src": msg.src, "bytes": msg.nbytes,
                    "wire_bytes": nbytes},
        )
        return True

    def _execute(self, item: int, victim: int | None = None) -> int:
        """Run ready-queue ``item`` — ``ntasks + op`` for an op of the
        plan, a BMOD's task id for a granted one — and account for it;
        returns its work. An owned item (``victim`` None) then publishes
        what it computed. A *stolen* task counts toward our executed-work
        metrics (and the stolen tallies) but *not* toward ``executed``,
        which ticks at the victim when the RESULT lands."""
        plan, chol, tr = self.plan, self.chol, self.trace
        o = item - self.tg.ntasks
        pfac, sent, pub = o >= plan.nupdates, (), 0.0
        t0 = self._now()
        if pfac:
            K, rows, tids, blocks, bfac, flops, work = (
                plan.factors[o - plan.nupdates])
            if bfac and plan.recipients[blocks[0]]:
                # L_KK travels: send it before the dtrsm. That publish is
                # not busy time: it leaves the busy total below.
                sent = blocks[:1]
                chol.bfac(K)
                pub = self._now()
                self._publish(sent)
                pub = self._now() - pub
            chol.pfac(K, rows, bfac and not sent)
            counts = {"BFAC": bfac, "BDIV": len(tids) - bfac}
            name = tr and "PFAC(%d)" % K
        else:
            K, J, rows, tids, blocks, flops, work = (
                plan.updates.single(item) if o < 0 else plan.updates.ops[o])
            chol.pmod(K, J, rows)
            counts, name = {"BMOD": len(tids)}, tr and "PMOD(%d,%d)" % (K, J)
        t1 = self._now()
        args = None
        if tr is not None:
            args = {"tids": list(tids), "blocks": list(blocks),
                    "flops": flops, "work": work}
            if pfac:
                args["bfac"] = int(bfac)
            if sent:
                args["publish_s"] = pub
            if victim is not None:
                args["stolen_from"] = victim
        if victim is None:
            self.executed += len(tids)
        else:
            self.metrics.tasks_stolen += 1
            self.metrics.work_stolen += work
        self.timeline.totals["busy"] -= pub
        self._account("busy", counts, t0, t1, work, flops, name, args)
        if victim is None:
            self._completed(item, blocks[len(sent):] if pfac else ())
        return work

    def _run_local(self) -> None:
        """Before the event loop, factor the rank's local columns in one
        sequential pass (pump time): one ``_account``, one publish."""
        tids, blocks, counts, flops, work, nops = self.plan.local_pass
        if tids:
            t0 = self._now()
            self.chol.factor(self.plan.local_cols)
            self.executed += len(tids)
            self._account("busy", counts, t0, self._now(), work, flops,
                          "LOCAL", self.trace and {
                              "tids": tids, "blocks": blocks, "flops": flops,
                              "work": work, "bfac": counts["BFAC"],
                              "ops": nops}, ops=0)
            self._publish(blocks)
            self.metrics.pump_s += self._now() - t0

    def _completed(self, item: int, blocks=()) -> None:
        """Owned ``item`` is done (here, or at a thief whose RESULT just
        landed): publish the final ``blocks`` it computed, then release
        the next op of its chain and, for a panel factor, the updates that
        read its share."""
        if blocks:
            self._publish(blocks)
        o = item - self.tg.ntasks
        self.readiness.finished(self.plan.updates.of[item] if o < 0 else o)

    def _publish(self, blocks) -> None:
        """``blocks`` are final here. Mark each held and take the CRC of
        its stored bytes — what a shm descriptor carries and the driver's
        gather checks — then fan it out; ship the coalesced batches at
        once, a share's frames in one put per peer: a peer waiting for the
        share has nothing else to wait for."""
        for b in blocks:
            self.have.add(b)
            self._crc[b] = zlib.crc32(self._block(b))
            self._fan_out(b)
        self._flush_pending()

    def _fan_out(self, b: int) -> None:
        """Send completed block ``b`` once to each distinct remote owner
        of a consumer; its logical bytes are what the static predictor
        charges, whatever the transport."""
        remote = self.plan.recipients[b]
        if not remote:
            return
        t0 = self._now()
        frame = (wire.pack_block(self.rank, b, *self.plan.coords[b],
                                 self._block(b)) if self.arena is None
                 else self.arena.pack_ref(self.rank, b, self._crc[b]))
        nbytes = wire.HEADER_BYTES + 8 * int(self.tg.block_words[b])
        for dst in remote:
            self.links[dst].send(frame, nbytes)
        tr = self.trace
        self._span(
            "comm", t0, "send", tr and "send(%d,%d)" % self.plan.coords[b],
            tr and {"block": b, "bytes": nbytes, "wire_bytes": len(frame),
                    "targets": remote},
        )

    # ------------------------------------------------------------------
    # Control plane: abort, DONE
    # ------------------------------------------------------------------
    # A job is fail-stop: a frame that does not decode raises in the
    # receive prologue, a second frame for a held block in its handler, a
    # rank that raises broadcasts ABORT, and the recovery loop
    # (:mod:`repro.runtime.recovery`) re-runs the job from scratch. Under
    # the dynamic schedule a rank that finished its own tasks broadcasts
    # DONE and lingers until every peer is done, so no steal GRANT ever
    # targets a finished thief.

    def _arm_control(self) -> None:
        self.handlers.update({wire.ABORT: self._on_abort,
                              wire.DONE: self._on_done})
        #: Peers that announced DONE (the linger waits for all of them).
        self.done_peers: set[int] = set()

    def _on_abort(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        self.metrics.control_received += 1
        if self.trace is not None:
            self.trace.mark("abort_recv", t0, {"src": msg.src})
        raise _Abort()

    def _on_done(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        self.metrics.control_received += 1
        self.done_peers.add(msg.src)
        self._span("comm", t0, "comm", "done_recv",
                   self.trace and {"src": msg.src})
        return True

    def _announce_done(self) -> None:
        """Enter the dynamic schedule's linger: broadcast DONE and keep
        serving peers until every one is done too — a finished worker
        answers STEAL_REQ with DENY but still executes a binding GRANT
        that raced its DONE."""
        done = wire.pack_done(self.rank)
        for link in self.links.values():
            link.send_control(done)
        if self.trace is not None:
            self.trace.mark("done_sent", self._now())

    # ------------------------------------------------------------------
    # Steal plane: work stealing (dynamic schedule)
    # ------------------------------------------------------------------
    # Ownership of the *update* migrates, never of the block. The victim
    # ships the destination block's current partial state in the GRANT;
    # the thief runs the identical kernel on those identical bytes at the
    # task's canonical accumulation position and ships the state back in a
    # RESULT, which the victim swaps in before doing the normal post-task
    # bookkeeping. Same kernel + same input bytes + same position ==
    # bitwise-identical factors, whichever rank executed the task.
    #
    # Only a panel update with a single member BMOD is granted, as that
    # task's id: the thief runs it as the same one-member update
    # (``PanelUpdates.single``). An update with several destinations, and
    # a panel factor, never leave their owner, so the wire carries one
    # destination block as before.
    #
    # Safe-grant invariant: an op in the ready queue is the next one of
    # its destination panel's chain (the Readiness holds the rest back
    # until it finishes, the panel factor last) — so at most one update
    # per destination is ever in flight,
    # and the victim never touches a granted-out destination until the
    # RESULT returns (the next update stays held, executed < n_owned keeps
    # the pump alive, and sources are only read once a block is final).

    def _arm_steal(self) -> None:
        self.handlers.update({wire.STEAL_REQ: self._on_steal_req,
                              wire.STEAL_DENY: self._on_deny,
                              wire.STEAL_SHIP: self._on_ship,
                              wire.STEAL_GRANT: self._on_grant,
                              wire.STEAL_RESULT: self._on_steal_result})
        #: Blocks installed as a stolen task's sources (inline; no
        #: dependency bookkeeping): the later regular frame runs the
        #: bookkeeping exactly once.
        self._steal_srcs: set[int] = set()
        self._steal_round = 0
        self._steal_victim: int | None = None
        self._steal_backoff_until = 0.0

    def _count_steal(self, nbytes: int) -> None:
        self.metrics.steal_messages_received += 1
        self.metrics.steal_bytes_received += nbytes

    def _request_steal(self) -> None:
        """Idle and out of ready work (the factor phase's idle hook): ask
        one peer for a task. At most one outstanding request; a DENY
        advances the round and backs off briefly before the next attempt.
        The victim is a deterministic choice keyed on (round, rank):
        reproducible, and uncorrelated between thieves so they don't
        dog-pile one victim."""
        now = self._now()
        if self._steal_victim is not None or now < self._steal_backoff_until:
            return
        peers = sorted(d for d in self.links if d not in self.done_peers)
        if not peers:
            return
        seed = (self._steal_round * 40503 + self.rank) & 0xFFFFFFFF
        victim = peers[random.Random(seed).randrange(len(peers))]
        self._steal_victim = victim  # at most one outstanding request
        self.metrics.steal_reqs_sent += 1
        self.links[victim].send_steal(
            wire.pack_steal_req(self.rank, self._steal_round))
        self._span("comm", now, "steal", "steal_req",
                   self.trace and {"victim": victim,
                                   "round": self._steal_round})

    def _on_deny(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        self._count_steal(nbytes)
        self._steal_victim = None
        self._steal_round += 1
        self.metrics.steal_denies_received += 1
        # Brief backoff: all-busy or all-done peers would otherwise draw
        # a REQ/DENY ping-pong every poll tick.
        self._steal_backoff_until = self._now() + 0.01
        self._span("comm", t0, "steal", "steal_deny_recv",
                   self.trace and {"src": msg.src})
        return False

    def _on_ship(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        """Inline transport: a final source the victim shipped ahead of a
        GRANT, installed *without* dependency bookkeeping: the regular
        fan-out frame for it still arrives later and runs the bookkeeping
        exactly once (its bytes are identical, so the overwrite is a no-op
        numerically)."""
        self._count_steal(nbytes)
        s = msg.block
        if s not in self.have and s not in self._steal_srcs:
            self._store(s, msg.payload)
            self._steal_srcs.add(s)
        self._span("comm", t0, "steal", "steal_ship_recv",
                   self.trace and {"block": msg.block, "src": msg.src})
        return False

    def _on_grant(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        """A victim granted us task ``msg.block`` (a task id, not a block
        id) and shipped the destination's partial state. Install the state
        (the sources arrived ahead of it inline; on shm they are final in
        the shared store), execute, ship the resulting state back."""
        self._count_steal(nbytes)
        self._steal_victim = None
        self._steal_round += 1
        tid, victim = msg.block, msg.src
        b = self.plan.task[tid][1]
        # Copied into our view of the block, so the task runs on the same
        # layout, and computes the same bits, as at the victim.
        self._store(b, msg.payload, final=False)
        tr = self.trace
        self._span("comm", t0, "steal", "steal_grant_recv",
                   tr and {"tid": tid, "victim": victim})
        work = self._execute(tid, victim)
        t2 = self._now()
        I, J = self.plan.coords[b]
        self.links[victim].send_steal(
            wire.pack_steal_result(self.rank, tid, I == J, self._block(b)))
        self._span("comm", t2, "steal", "steal_result",
                   tr and {"tid": tid, "victim": victim, "work": work})
        return True

    def _on_steal_req(self, msg: wire.WireMessage, nbytes: int,
                      t0: float) -> bool:
        """Grant the steal-end task of our queue, or DENY. Grants only a
        one-member panel update and only while we keep at least one ready
        task for ourselves."""
        self._count_steal(nbytes)
        thief = msg.src
        grantable = self.plan.grantable
        tid = None
        if self.dynamic and thief in self.links and len(self.scheduler) >= 2:
            tid = grantable.get(self.scheduler.steal(grantable.__contains__))
        m, tr = self.metrics, self.trace
        if tid is None:
            m.steal_denies += 1
            self.links[thief].send_steal(
                wire.pack_steal_deny(self.rank, msg.block))
            self._span("comm", t0, "steal", "steal_deny",
                       tr and {"thief": thief})
            return False
        _, b, *_, work = self.plan.task[tid]
        if self.arena is None:
            # Inline transport: ship the final sources ahead of the grant
            # (same link, FIFO — they land first). On shm the thief reads
            # them in the shared store, where their owners wrote them.
            for s in self.plan.sources(tid):
                self.links[thief].send_steal(wire.pack_steal_ship(
                    self.rank, s, *self.plan.coords[s], self._block(s)))
        I, J = self.plan.coords[b]
        self.links[thief].send_steal(
            wire.pack_steal_grant(self.rank, tid, I == J, self._block(b)))
        m.steal_grants += 1
        m.tasks_shipped += 1
        m.work_shipped += work
        self._span("comm", t0, "steal", "steal_grant",
                   tr and {"tid": tid, "thief": thief, "work": work})
        return False

    def _on_steal_result(self, msg: wire.WireMessage, nbytes: int,
                         t0: float) -> bool:
        """The thief returned the destination state for a task we granted
        away: swap it in, count it as one of our owned executions, and
        release the next op of its chain."""
        self._count_steal(nbytes)
        tid = msg.block
        _, b, *_, work = self.plan.task[tid]
        self._store(b, msg.payload, final=False)
        self.executed += 1
        self._span("comm", t0, "steal", "steal_result_recv",
                   self.trace and {"tid": tid, "thief": msg.src, "work": work})
        self._completed(tid)
        return True

    # ------------------------------------------------------------------
    # Solve plane: distributed triangular solve (see docs/SOLVING.md)
    # ------------------------------------------------------------------
    # The factor never moves; only right-hand-side fragments cross the
    # wire, on a ledger of their own. A panel absorbs its updates in the
    # plan's fixed order, so the solution is bitwise the sequential
    # sweeps' wherever the grouping is theirs: on every 1 x P grid.

    def _arm_solve(self, rhs: np.ndarray) -> None:
        """``rhs`` is the right-hand side panel stack (already permuted,
        full ``n x nrhs``); the rows of it this rank solves ship home in
        :attr:`WorkerResult.solution`."""
        self.handlers.update({wire.SOLVE_Y: self._on_y,
                              wire.SOLVE_X: self._on_x,
                              wire.SOLVE_FUP: self._on_fup,
                              wire.SOLVE_BUP: self._on_bup})
        #: The rank's :class:`SolvePlan`: compiled by its first job with
        #: an rhs, then read off the resident context.
        self.splan = sp = self.context.solve_plan(self.rank, lambda: SolvePlan(
            self.context.structure, self.tg, self.owners, self.rank,
            self.plan.local_cols))
        rhs, _ = permute_rhs(rhs, sp.panel_cols[-1][1], None)
        #: This rank's copy of the right-hand side, solved in place as the
        #: sequential sweeps do: a panel's rows hold ``B``, then ``Y``,
        #: then ``X``, as this rank computes or receives them.
        self._z = np.array(rhs.reshape(len(rhs), -1), order="C")
        self.nrhs = int(self._z.shape[1])
        #: Updates parked until their panel absorbs them in order: forward
        #: ones by block, backward shares by their first block.
        self._fwd: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}
        self._waiting = list(sp.wait)
        self.solve_scheduler = ReadyScheduler()
        for stid in sp.seeds:
            self.solve_scheduler.push(stid)

    def _solve_dep(self, kind: int, k: int) -> None:
        """One of the events solve task ``kind(k)`` waits for happened."""
        stid = kind * self.splan.npanels + k
        self._waiting[stid] -= 1
        if not self._waiting[stid]:
            self.solve_scheduler.push(stid)

    def _x_ready(self, i: int) -> None:
        """``X_i`` is final here: it feeds the BUPDs (and the backward
        pass) that read row i."""
        for kind, k in self.splan.x_wake[i]:
            self._solve_dep(kind, k)

    def _solve_received(self, msg: wire.WireMessage, nbytes: int, t0: float,
                        name: str) -> bool:
        self.metrics.solve_messages_received += 1
        self.metrics.solve_bytes_received += nbytes
        self._span("solve_comm", t0, "solve_recv", name,
                   self.trace and {"src": msg.src, "bytes": nbytes})
        return True

    def _on_y(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        c0, c1 = self.splan.panel_cols[msg.block]
        self._z[c0:c1] = msg.payload
        if msg.block in self.splan.shares:  # Y_K feeds this rank's FUPD
            self._solve_dep(FUPD, msg.block)
        return self._solve_received(msg, nbytes, t0,
                                    self.trace and f"y({msg.block})")

    def _on_x(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        c0, c1 = self.splan.panel_cols[msg.block]
        self._z[c0:c1] = msg.payload
        self._x_ready(msg.block)
        return self._solve_received(msg, nbytes, t0,
                                    self.trace and f"x({msg.block})")

    def _on_fup(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        self._fwd[msg.block] = msg.payload
        self._solve_dep(FSOLVE, self.plan.coords[msg.block][0])
        return self._solve_received(
            msg, nbytes, t0,
            self.trace and "fup(%d,%d)" % self.plan.coords[msg.block])

    def _on_bup(self, msg: wire.WireMessage, nbytes: int, t0: float) -> bool:
        self._bwd[msg.block] = msg.payload
        self._solve_dep(BSOLVE, self.plan.coords[msg.block][1])
        return self._solve_received(
            msg, nbytes, t0,
            self.trace and "bup(%d,%d)" % self.plan.coords[msg.block])

    def _solve_send(self, kind: int, ref: int, out: np.ndarray, dsts,
                    name: str) -> None:
        """Send ``out`` as one solve frame to each of the (distinct,
        remote) ranks ``dsts``."""
        if not dsts:
            return
        t0 = self._now()
        frame = wire.pack_solve(kind, self.rank, ref, out)
        for dst in dsts:
            self.links[dst].send_solve(frame)
        self._span("solve_comm", t0, "solve_send", name,
                   self.trace and {"bytes": len(frame), "targets": dsts})

    def _fup(self, share, out: np.ndarray) -> None:
        """Deliver a forward product's parts: park one whose row this rank
        solves, send the others, one ``SOLVE_FUP`` frame per block."""
        for b, lo, hi, dst in share.parts:
            I, J = self.plan.coords[b]
            if dst == self.rank:
                self._fwd[b] = out[lo:hi]
                self._solve_dep(FSOLVE, I)
            else:
                self._solve_send(wire.SOLVE_FUP, b, out[lo:hi], [dst],
                                 self.trace and f"fup({I},{J})")

    def _sweep(self, backward: bool) -> None:
        """One pass over the rank's local columns, one span. Forward: per
        panel a solve and one product, applied at once to its local rows
        (a prefix), the rest delivered after the span as a FUPD's."""
        sp, chol, z, tr = self.splan, self.chol, self._z, self.trace
        products = []
        t0 = self._now()
        if backward:
            block_backward(chol, z, sp.local_cols)
        for k in () if backward else sp.local_cols:
            c0, c1 = sp.panel_cols[k]
            Y = z[c0:c1] = fsolve_kernel(chol.diag[k], z[c0:c1])
            share = sp.shares.get(k)
            if share is not None:
                U = fupd_kernel(chol.stacked[k], Y)
                z[share.rows[:share.m]] -= U[:share.m]
                products.append((share, U))
        counts = dict(zip(SOLVE_KIND_NAMES[2 * backward:], sp.sweep_counts))
        work = sp.sweep_work * self.nrhs
        self.solve_executed += sum(sp.sweep_counts)
        self._account("solve_busy", counts, t0, self._now(), work, 0,
                      tr and ("BLOCAL" if backward else "FLOCAL"),
                      tr and {"counts": counts, "work": work,
                              "panels": sp.local_cols})
        for share, U in products:
            self._fup(share, U)
        if not backward:
            self._solve_dep(SWEEP, 1)

    def _solve_execute(self, stid: int) -> None:
        """Run one solve task (or local sweep), account for it, then
        deliver its output — locally when this rank absorbs it, else over
        the wire."""
        sp, chol, tr, rank, z = (
            self.splan, self.chol, self.trace, self.rank, self._z)
        kind, k = divmod(stid, sp.npanels)
        if stid >= SWEEP * sp.npanels:
            return self._sweep(stid > SWEEP * sp.npanels)
        c0, c1 = sp.panel_cols[k]
        share = sp.shares.get(k)
        t0 = self._now()
        if kind == FSOLVE:
            for b, rows in sp.fwd_order[k]:
                z[rows] -= self._fwd.pop(b)
            out = z[c0:c1] = fsolve_kernel(chol.diag[k], z[c0:c1])
        elif kind == BSOLVE:
            B = z[c0:c1]
            for b in sp.bup_order[k]:
                B -= self._bwd.pop(b)
            out = z[c0:c1] = bsolve_kernel(chol.diag[k], B)
        elif kind == FUPD:
            out = fupd_kernel(chol.stacked[k][share.sel], z[c0:c1])
        else:
            out = bupd_kernel(chol.stacked[k][share.sel], z[share.rows])
        t1 = self._now()
        diag = kind in (FSOLVE, BSOLVE)
        work = solve_flops(c1 - c0 if diag else share.rows.shape[0],
                           c1 - c0, self.nrhs, diag=diag)
        self.solve_executed += 1
        name = SOLVE_KIND_NAMES[kind]
        self._account(
            "solve_busy", {name: 1}, t0, t1, work, 0,
            tr and (f"{name}({k})" if diag else f"{name}({k},{rank})"),
            tr and {"id": k, "work": work})
        # Post-task bookkeeping and fan-out.
        if kind == FSOLVE:
            self._solve_send(wire.SOLVE_Y, k, out, self.plan.recipients[
                self.tg.diag_block[k]], tr and f"y({k})")
            if share is not None:
                self._solve_dep(FUPD, k)
            self._solve_dep(BSOLVE, k)
        elif kind == BSOLVE:
            self._solve_send(wire.SOLVE_X, k, out, sp.x_dsts[k],
                             tr and f"x({k})")
            self._x_ready(k)
        elif kind == FUPD:
            self._fup(share, out)
        else:
            b = share.parts[0][0]
            if sp.diag_owner[k] == rank:
                self._bwd[b] = out
                self._solve_dep(BSOLVE, k)
            else:
                self._solve_send(wire.SOLVE_BUP, b, out, [sp.diag_owner[k]],
                                 tr and "bup(%d,%d)" % self.plan.coords[b])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _gather(self, blocks: list[int]):
        """The result gather, ``(held, words)``: home go the ids of
        ``blocks`` and the CRC each had when this rank published it, which
        the driver holds its assembled copy to, and on inline their words
        (on shm they stay in the arena's store, which the driver copies)."""
        held = (np.asarray(blocks, dtype=np.int32),
                np.fromiter(map(self._crc.__getitem__, blocks), np.uint32,
                            len(blocks)))
        if self.arena is not None:
            return held, None
        return held, np.concatenate(
            [self._block(b).ravel() for b in blocks] or [np.empty(0)])

    def _broadcast_abort(self) -> None:
        if self.trace is not None:
            self.trace.mark("abort_sent", self._now())
        frame = wire.pack_abort(self.rank)
        for link in self.links.values():
            try:
                link.send_control(frame)
            except Exception:  # pragma: no cover - peer already gone
                pass

    def _finalize(self) -> None:
        m = self.metrics
        for cat, total in self.timeline.totals.items():
            setattr(m, f"{cat}_s", total)
        for dst, link in self.links.items():
            if link.messages:
                m.links[dst] = [link.messages, link.bytes]
            m.wire_bytes_sent += link.wire_bytes
            m.control_sent += link.control_messages
            m.steal_messages_sent += link.steal_messages
            m.steal_bytes_sent += link.steal_bytes
            m.solve_messages_sent += link.solve_messages
            m.solve_bytes_sent += link.solve_bytes
        m.messages_sent = sum(v[0] for v in m.links.values())
        m.bytes_sent = sum(v[1] for v in m.links.values())
        if self.injector is not None:
            m.faults_injected = {
                k: v for k, v in self.injector.injected.items() if v
            }
        if self.trace is not None:
            m.trace_events = len(self.trace.events)
            m.trace_dropped = self.trace.dropped
