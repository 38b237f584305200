"""The worker: §2.3's fan-out protocol as one event loop over real processes.

Each worker owns the blocks a :class:`~repro.mapping.base.BlockMap` (via
``block_owners``) assigned to it and executes every block operation whose
destination it owns, grouped by share — the blocks of one column it owns:
one panel factor PFAC(K) per share, one panel update PMOD(K,J) per source
and destination panel — and tracks readiness per share, not per block
(:mod:`repro.fanout.dispatch`). A processor does one thing — take a ready
op or an arrived block, run it, fan the result out block by block — and
:class:`Worker` writes that loop once:

* :meth:`Worker.arm` wires a rank to one job — a factor job or a warm
  solve on a retained worker — and starts its wire-kind → handler table;
* :meth:`Worker.receive` is the one receive prologue (decode, CRC check,
  ``BLOCK_REF`` descriptor checked against the arena; an undecodable
  frame raises its typed
  :class:`~repro.runtime.wire.WireError`), then a lookup in that table;
* ``_pump`` runs every phase of a job (factor, the dynamic schedule's
  DONE linger, solve — see :meth:`Worker.phases`) on the non-blocking
  :meth:`Worker.step`:
  drain the inbox when that can matter (nothing ready, or every
  ``DRAIN_EVERY`` steps), run one ready task, else the phase's idle hook;
  then wait ``POLL_S`` for a frame, then check for a stall;
* ``_account`` is the post-task step every executed task passes through,
  ``_span`` the only timeline / trace-span emitter, ``_block`` / ``_store``
  the block accessor pair, and :meth:`Worker.run` ends in the one ship-home
  epilogue: one :class:`WorkerResult` (owned blocks as frames on the inline
  transport; on shm the ranks factor the arena's one store in place, so
  only the ids of the owned blocks and their CRCs travel), after an ABORT
  broadcast on error so peers exit promptly instead of deadlocking.

State and handlers are grouped by *plane* — factor, control (ABORT,
DONE), steal (the dynamic schedule), solve — each
registering its wire kinds when armed; the sections below describe their
protocols, ``docs/ARCHITECTURE.md`` tabulates *wire kind → plane →
handler → what it may unblock*. Because ``step`` never blocks, tests drive
several ranks in one thread over an in-memory fabric (``LinkFabric(P,
queue)``) and reach every handler without a process.
"""

from __future__ import annotations

import os
import queue as queue_mod
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy import sparse

from repro.numeric.blockfact import BlockCholesky
from repro.numeric.solve import (
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
    BSOLVE, BUPD, FSOLVE, FUPD, SOLVE_KIND_NAMES, SolvePlan,
)
from repro.runtime.trace import TraceRecorder, WorkerTrace

#: Inbox wait per idle tick; bounds how late a worker notices a frame.
POLL_S = 0.002
#: A rank with ready tasks reads its inbox (a ``poll()`` syscall, about
#: one 25 us task) every this many steps: the wait of ABORT and steal.
DRAIN_EVERY = 16
#: The no-progress watchdog, in seconds, of a job whose links inject
#: message faults (``config.stall_timeout_s`` otherwise): a dropped frame
#: ends the attempt this soon, and the job re-runs from scratch.
FAULTY_STALL_S = 0.5


class _Abort(Exception):
    """A peer told us to stop."""


@dataclass
class WorkerResult:
    """What a worker sends home: metrics plus its owned factor blocks —
    as wire frames on the inline transport, as ``held`` on shm, where the
    blocks stay in the arena's store; none on error or abort."""

    rank: int
    metrics: WorkerMetrics
    frames: list[bytes]
    trace: WorkerTrace | None = None
    #: Solve-phase output: owned panel id -> dense ``w x nrhs`` solution
    #: fragment (permuted coordinates). ``None`` when no solve ran.
    solution: dict[int, np.ndarray] | None = None
    #: A clean shm factor job: ``(blocks, crcs)`` — the owned block ids,
    #: ascending, and the CRC32 of each block's stored bytes as the rank
    #: published it (:meth:`repro.runtime.arena.BlockArena.checksum`).
    held: tuple[np.ndarray, np.ndarray] | None = None


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
    graph, owners, the :class:`~repro.config.RunConfig`, and
    the permuted matrix's index arrays — scattering ``job.values`` into
    initial block data is the runtime's stand-in for the host
    distributing ``A``), the
    :class:`~repro.runtime.pool.PoolJob` (values, rhs, the fault plan and
    the trace capacity) and the pattern's attached
    ``arena`` (shm transport, whose store this rank factors in place;
    None means inline, a private store).
    """

    def __init__(self, rank: int, context, job, arena, fabric, result_queue,
                 epoch: float = 0.0):
        self.rank = rank
        self.context = context
        self.config = config = context.config
        self.tg = context.tg
        self.owners = np.asarray(context.owners)
        self.arena = arena
        self.epoch = epoch
        #: ``"dynamic"`` adds work stealing on top of the owner-computes
        #: map (see ``docs/SCHEDULING.md``).
        self.dynamic = config.schedule == "dynamic" and fabric.nprocs > 1
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
        self.stall_s = self.config.stall_timeout_s
        if plan is not None and plan.active:
            self.injector = FaultInjector(plan, self.rank)
            self.links = self.injector.wrap_links(self.links)
            if plan.message_faults_active:
                self.stall_s = FAULTY_STALL_S
        if self.arena is not None:
            # Descriptors are cheap and uniform — batch them per link and
            # ship one queue put per drain instead of one per block.
            for link in self.links.values():
                link.coalesce = True
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
        frames: list[bytes] = []
        solution = held = None
        try:
            t0 = self._now()
            self._setup(factor)
            m.setup_s = self._now() - t0
            for phase in self.phases():
                self._pump(phase)
            if factor:
                t0 = self._now()
                if self.arena is None:
                    frames = self._frames(self.plan.owned)
                else:
                    held = self._held(self.plan.owned)
                m.gather_s = self._now() - t0
            if self.job.rhs is not None:
                solution = self._solution_panels
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
            WorkerResult(self.rank, m, frames, trace, solution, held)
        )
        if failed:
            # Don't hang at exit flushing frames to peers that may be gone.
            for link in self.links.values():
                link.queue.cancel_join_thread()

    def _setup(self, factor: bool) -> None:
        """Arm the planes of this job. A factor job scatters ``A`` — into
        a private store inline; on shm into the words of its own blocks of
        the arena's store, which every rank factors in place — and starts
        factor and steal state afresh; a warm solve keeps the resident
        factor and arms only a new solve plane."""
        ctx, job = self.context, self.job
        if factor:
            if self.arena is None:
                self.chol = BlockCholesky(ctx.structure, sparse.csc_matrix(
                    (job.values, ctx.indices, ctx.indptr),
                    shape=tuple(ctx.shape),
                ))
            else:
                if job.values.shape != ctx.indices.shape:
                    raise ValueError("values disagree with the pattern")
                self.chol = self.arena.factor
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
                lambda: self.n_solve_owned - self.solve_executed,
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
                # coalesced descriptor batches so consumers proceed.
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

    def _account(self, seg: str, kind: str, t0: float, t1: float, work: int,
                 flops: int, name: str, args: dict | None, n: int = 1,
                 bfac: int = 0) -> None:
        """Post-task accounting, the one step every locally executed op
        passes through — owned and stolen factor ops of ``n`` tasks, a
        panel factor's ``bfac`` of them its BFAC (``seg="busy"``), solve
        tasks (``"solve_busy"``): ledger, busy span, injected faults. The
        crash trigger counts the tasks this rank completed as owner or
        solver and fires at the next op run here."""
        m = self.metrics
        if seg == "busy":
            m.ops_executed += 1
            m.tasks_executed += n
            m.task_counts[kind] += n - bfac
            m.task_counts["BFAC"] += bfac
            m.flops_executed += flops
            m.work_executed += work
            self._span(seg, t0, "task", name, args, t1)
        else:
            m.solve_tasks_executed += 1
            m.solve_task_counts[kind] += 1
            m.solve_work_executed += work
            self._span(seg, t0, "solve_task", name, args, t1)
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

    def _logical_nbytes(self, b: int) -> int:
        """Logical frame bytes for block ``b`` — exactly what the static
        predictor charges, independent of the transport."""
        return wire.HEADER_BYTES + 8 * int(self.tg.block_words[b])

    def _frame_for(self, b: int) -> bytes:
        if self.arena is not None:
            return self.arena.pack_ref(self.rank, b, self._crc[b])
        I, J = self.plan.coords[b]
        return wire.pack_block(self.rank, b, I, J, self._block(b))

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
    # Readiness and recipients are ``repro.fanout.protocol``'s — the same
    # rules the simulator drives, so the same mapping yields the same
    # message set, now with real wall-clock time — coarsened to the share
    # (the blocks of one column a rank owns) by the context's compiled
    # ``DispatchPlan``: the rank runs one panel factor PFAC(K) per share
    # and one panel update PMOD(K,J) per (source, destination) pair, and
    # ``self.readiness`` counts the few share events each one waits for.
    # The block stays the unit of data: each finished block travels in
    # its own frame.

    def _arm_factor(self) -> None:
        self.handlers.update({wire.BLOCK: self._on_block,
                              wire.BLOCK_REF: self._on_block})
        self.plan = plan = self.context.dispatch_plan(self.rank)
        self.n_owned = plan.n_owned
        #: Per published block, the CRC32 of its stored bytes (shm).
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
            kind, name = "BDIV", tr and "PFAC(%d)" % K
        else:
            K, J, rows, tids, blocks, flops, work = (
                plan.updates.single(item) if o < 0 else plan.updates.ops[o]
            )
            chol.pmod(K, J, rows)
            bfac, kind, name = False, "BMOD", tr and "PMOD(%d,%d)" % (K, J)
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
        self._account("busy", kind, t0, t1, work, flops, name, args,
                      len(tids), bfac)
        if victim is None:
            self._completed(item, blocks[len(sent):] if pfac else ())
        return work

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
        """``blocks`` are final here. Mark each held and, on the shm
        transport, take the CRC of its stored bytes — what its descriptors
        carry and the driver's gather checks — then fan it out; ship the
        coalesced batches at once, a share's frames in one put per peer:
        a peer waiting for the share has nothing else to wait for."""
        for b in blocks:
            self.have.add(b)
            if self.arena is not None:
                self._crc[b] = self.arena.checksum(b)
            self._fan_out(b)
        self._flush_pending()

    def _fan_out(self, b: int) -> None:
        """Send completed block ``b`` once to each distinct remote owner
        of a consumer."""
        remote = self.plan.recipients[b]
        if not remote:
            return
        t0 = self._now()
        frame = self._frame_for(b)
        nbytes = self._logical_nbytes(b)
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
        The victim is a deterministic seeded choice keyed on (seed, round,
        rank): reproducible given the same knobs, uncorrelated between
        thieves so they don't dog-pile one victim."""
        now = self._now()
        if self._steal_victim is not None or now < self._steal_backoff_until:
            return
        peers = sorted(d for d in self.links if d not in self.done_peers)
        if not peers:
            return
        seed = (
            self.config.steal_seed * 2654435761
            + self._steal_round * 40503
            + self.rank
        ) & 0xFFFFFFFF
        victim = peers[random.Random(seed).randrange(len(peers))]
        self._steal_victim = victim  # at most one outstanding request
        self.metrics.steal_reqs_sent += 1
        self.links[victim].send_steal(
            wire.pack_steal_req(self.rank, self._steal_round)
        )
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
            wire.pack_steal_result(self.rank, tid, I == J, self._block(b))
        )
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
        m = self.metrics
        tr = self.trace
        if tid is None:
            m.steal_denies += 1
            self.links[thief].send_steal(
                wire.pack_steal_deny(self.rank, msg.block)
            )
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
                    self.rank, s, *self.plan.coords[s], self._block(s)
                ))
        I, J = self.plan.coords[b]
        self.links[thief].send_steal(
            wire.pack_steal_grant(self.rank, tid, I == J, self._block(b))
        )
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
    # The factor never moves: FSOLVE/BSOLVE(K) run where the diagonal
    # block lives, FUPD/BUPD(K, g) over the rows of column K rank g owns,
    # stacked, and only right-hand-side fragments cross the wire (SOLVE_Y/X
    # panel broadcasts, one SOLVE_FUP per block, one SOLVE_BUP per remote
    # share). A panel absorbs its updates in the plan's fixed order, so
    # the solution is bitwise the sequential sweeps' wherever the grouping
    # is theirs: on every 1 x P grid. Solve frames have their own ledger
    # and always carry their payload, so logical bytes == wire bytes.

    def _arm_solve(self, rhs: np.ndarray) -> None:
        """``rhs`` is the right-hand side panel stack (already permuted,
        full ``n x nrhs``); the owned solution panels it yields ship home
        in :attr:`WorkerResult.solution`."""
        self.handlers.update({wire.SOLVE_Y: self._on_y,
                              wire.SOLVE_X: self._on_x,
                              wire.SOLVE_FUP: self._on_fup,
                              wire.SOLVE_BUP: self._on_bup})
        #: The rank's :class:`SolvePlan`: compiled by its first job with
        #: an rhs, then read off the resident context.
        self.splan = sp = self.context.solve_plan(self.rank, lambda: SolvePlan(
            self.context.structure, self.tg, self.owners, self.rank))
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
        #: Owned solution panels shipped home in the WorkerResult.
        self._solution_panels: dict[int, np.ndarray] = {}
        self.solve_scheduler = ReadyScheduler()
        self.n_solve_owned = sp.ntasks
        for stid in sp.seeds:
            self.solve_scheduler.push(stid)

    def _solve_dep(self, kind: int, k: int) -> None:
        """One of the events solve task ``kind(k)`` waits for happened."""
        stid = kind * self.splan.npanels + k
        self._waiting[stid] -= 1
        if not self._waiting[stid]:
            self.solve_scheduler.push(stid)

    def _y_ready(self, k: int) -> None:
        """``Y_k`` is final here: it feeds this rank's FUPD of column k."""
        if k in self.splan.shares:
            self._solve_dep(FUPD, k)

    def _x_ready(self, i: int) -> None:
        """``X_i`` is final here: it feeds the BUPDs that read row i."""
        for k in self.splan.x_wake[i]:
            self._solve_dep(BUPD, k)

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
        self._y_ready(msg.block)
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

    def _solve_send(self, frame: bytes, dsts, name: str) -> None:
        """Send one solve frame to each of the (distinct, remote) ranks."""
        if not dsts:
            return
        t0 = self._now()
        for dst in dsts:
            self.links[dst].send_solve(frame)
        self._span("solve_comm", t0, "solve_send", name,
                   self.trace and {"bytes": len(frame), "targets": dsts})

    def _solve_execute(self, stid: int) -> None:
        """Run one solve task, account for it, then deliver its output —
        locally when this rank absorbs it, else over the wire."""
        sp, chol, tr, rank, z = (
            self.splan, self.chol, self.trace, self.rank, self._z)
        kind, k = divmod(stid, sp.npanels)
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
        self._account(
            "solve_busy", SOLVE_KIND_NAMES[kind], t0, t1, work, 0,
            tr and (f"{SOLVE_KIND_NAMES[kind]}({k})" if diag
                    else f"{SOLVE_KIND_NAMES[kind]}({k},{rank})"),
            tr and {"id": k, "work": work})
        # Post-task bookkeeping and fan-out.
        if kind == FSOLVE:
            self._solve_send(wire.pack_solve_y(rank, k, out),
                             self.plan.recipients[self.tg.diag_block[k]],
                             tr and f"y({k})")
            self._y_ready(k)
            self._solve_dep(BSOLVE, k)
        elif kind == BSOLVE:
            self._solution_panels[k] = out
            self._solve_send(wire.pack_solve_x(rank, k, out), sp.x_dsts[k],
                             tr and f"x({k})")
            self._x_ready(k)
        elif kind == FUPD:
            for b, lo, hi, dst in share.parts:
                if dst == rank:
                    self._fwd[b] = out[lo:hi]
                    self._solve_dep(FSOLVE, self.plan.coords[b][0])
                else:
                    self._solve_send(
                        wire.pack_solve_fup(rank, b, out[lo:hi]), [dst],
                        tr and "fup(%d,%d)" % self.plan.coords[b])
        else:
            b = share.parts[0][0]
            if sp.diag_owner[k] == rank:
                self._bwd[b] = out
                self._solve_dep(BSOLVE, k)
            else:
                self._solve_send(wire.pack_solve_bup(rank, b, out),
                                 [sp.diag_owner[k]],
                                 tr and "bup(%d,%d)" % self.plan.coords[b])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _frames(self, blocks) -> list[bytes]:
        """The inline transport's result gather: driver-bound frames for
        ``blocks``, carrying their payload."""
        return [self._frame_for(int(b)) for b in blocks]

    def _held(self, blocks: list[int]):
        """The shm transport's result gather: the blocks stay in the
        arena's store and the driver reads them there; home go their ids
        and the CRC each had when this rank published it, so the driver's
        check of its copy holds them to what was published."""
        return (np.asarray(blocks, dtype=np.int32),
                np.fromiter(map(self._crc.__getitem__, blocks), np.uint32,
                            len(blocks)))

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
