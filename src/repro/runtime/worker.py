"""The worker event loop: §2.3's fan-out protocol over real processes.

Each worker owns the blocks a :class:`~repro.mapping.base.BlockMap` (via
``block_owners``) assigned to it and executes every block operation whose
destination it owns. Completions trigger real messages:

* BFAC(K,K)  -> send ``L_KK`` to every remote worker owning a subdiagonal
  block of panel K (they need it for BDIV);
* BDIV(I,K)  -> send ``L_IK`` to every remote worker owning a destination
  of one of its BMODs;
* a BMOD becomes ready when both source blocks are present; BFAC/BDIV when
  the destination has absorbed all its BMODs (BDIV also after the diagonal
  arrives) — identical bookkeeping to the discrete-event simulator, so the
  same mapping yields the same message set, now with real wall-clock time.

A worker terminates when it has executed all its tasks; it then ships its
factored blocks and metrics home on the result queue. On error it
broadcasts ABORT frames so peers exit promptly instead of deadlocking.

Fault tolerance (``recovery=True``, see :mod:`repro.runtime.faults` and
:mod:`repro.runtime.recovery`):

* every incoming frame is CRC-checked; corrupt frames are rejected and the
  presumed sender NACKed for a retransmit;
* duplicate block frames are suppressed idempotently (a block is applied
  exactly once, no matter how often it arrives);
* a worker that stops receiving messages it still needs *renegotiates*:
  it NACKs the owners of its missing blocks under bounded exponential
  backoff before giving up;
* after finishing its own tasks a worker broadcasts DONE and lingers to
  serve retransmit requests until every peer is done — so late NACKs
  always find a living sender;
* on abort/error the worker ships every completed block it holds as a
  checkpoint, which the driver feeds to the restarted run.
"""

from __future__ import annotations

import os
import queue as queue_mod
import random
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.numeric.blockfact import BlockCholesky
from repro.numeric.solve import (
    bsolve_kernel,
    bupd_kernel,
    fsolve_kernel,
    fupd_kernel,
    solve_flops,
)
from repro.fanout.tasks import BDIV, BFAC, BMOD
from repro.runtime import wire
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.metrics import TimelineRecorder, WorkerMetrics
from repro.runtime.scheduler import ReadyScheduler
from repro.runtime.solve_plan import SolvePlan
from repro.runtime.trace import TraceRecorder, WorkerTrace

_KIND_NAMES = {BFAC: "BFAC", BDIV: "BDIV", BMOD: "BMOD"}

#: Inbox wait per idle tick; bounds how late a worker notices a frame.
POLL_S = 0.002
#: Retransmits of one block to one requester before NACKs are ignored.
RETRANSMIT_LIMIT = 5

#: Solve-phase task kinds (worker-internal ids; see ``_solve_tid``).
_FSOLVE, _FUPD, _BSOLVE, _BUPD = 0, 1, 2, 3
_SOLVE_KIND_NAMES = {_FSOLVE: "FSOLVE", _FUPD: "FUPD",
                     _BSOLVE: "BSOLVE", _BUPD: "BUPD"}


class _Abort(Exception):
    """A peer told us to stop."""


@dataclass
class WorkerResult:
    """What a worker sends home: metrics plus its owned factor blocks
    (wire frames; on error/abort under recovery, the completed-block
    checkpoint instead)."""

    rank: int
    metrics: WorkerMetrics
    frames: list[bytes]
    trace: WorkerTrace | None = None
    #: Solve-phase output: owned panel id -> dense ``w x nrhs`` solution
    #: fragment (permuted coordinates). ``None`` when no solve ran.
    solution: dict[int, np.ndarray] | None = None


class Worker:
    """One rank of the message-passing runtime.

    Parameters mirror the job the pool shipped: the block ``structure``
    and input matrix ``A`` (to scatter initial block data — the runtime's
    stand-in for the host distributing ``A``), the task graph ``tg``, the
    block ``owners`` array, an optional per-task priority array, the
    pattern's attached ``arena`` (shm transport; None means inline), and
    failure-injection / recovery / watchdog knobs.
    """

    def __init__(
        self,
        rank: int,
        structure,
        A,
        tg,
        owners: np.ndarray,
        fabric,
        result_queue,
        priorities: np.ndarray | None = None,
        epoch: float = 0.0,
        stall_timeout_s: float = 30.0,
        inject_failure: tuple[int, int] | None = None,
        record_timeline: bool = True,
        trace_capacity: int = 0,
        op_fixed_cost: int = 1000,
        fault_plan: FaultPlan | None = None,
        recovery: bool = False,
        checkpoint: dict[int, bytes] | None = None,
        renegotiate_base_s: float = 0.2,
        renegotiate_cap_s: float = 2.0,
        max_renegotiations: int = 8,
        arena=None,
        schedule: str = "static",
        steal_seed: int = 0,
        rhs: np.ndarray | None = None,
    ):
        self.rank = rank
        self.structure = structure
        self.A = A
        self.tg = tg
        self.owners = np.asarray(owners)
        self.fabric = fabric
        self.result_queue = result_queue
        self.priorities = priorities
        self.epoch = epoch
        self.stall_timeout_s = stall_timeout_s
        self.inject_failure = inject_failure
        self.op_fixed_cost = op_fixed_cost
        self.fault_plan = fault_plan
        self.recovery = recovery
        self.checkpoint = checkpoint or {}
        self.renegotiate_base_s = renegotiate_base_s
        self.renegotiate_cap_s = renegotiate_cap_s
        self.max_renegotiations = max_renegotiations
        #: The pattern's :class:`~repro.runtime.arena.BlockArena`, attached
        #: (and later closed) by the resident process — the shm transport;
        #: None runs the inline transport.
        self.arena = arena
        #: ``"static"`` runs the owner-computes map as-is; ``"dynamic"``
        #: adds work stealing on top of it (see :mod:`docs/SCHEDULING.md`):
        #: an idle worker requests a task from a seeded-random busy peer,
        #: executes it against the shipped destination state, and returns
        #: the result — ownership of the *update* migrates, never the block.
        self.schedule = schedule
        self.steal_seed = steal_seed
        #: Right-hand side panel stack (already permuted, full ``n x nrhs``
        #: float64). When given, the worker runs the distributed triangular
        #: solve after the factor phase and ships its owned solution panels
        #: home in :attr:`WorkerResult.solution`.
        self.rhs = None if rhs is None else np.ascontiguousarray(
            rhs, dtype=np.float64
        )
        self.record_timeline = record_timeline
        self.metrics = WorkerMetrics(rank=rank)
        self.timeline = TimelineRecorder(enabled=record_timeline)
        #: Structured event recorder, or None (tracing off — the hot path
        #: then pays one identity check per event site, no allocation).
        self.trace = TraceRecorder(trace_capacity) if trace_capacity else None

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute the event loop and ship the result; never raises."""
        solution = None
        try:
            self._setup()
            self._loop()
            self._linger()
            if self.rhs is not None:
                self._solve_loop()
                solution = self._solution_panels
            frames = self._gather_frames()
        except _Abort:
            self.metrics.aborted = True
            frames = self._checkpoint_frames() if self.recovery else []
        except BaseException:  # noqa: BLE001 - reported to the driver
            self.metrics.error = traceback.format_exc()
            frames = self._checkpoint_frames() if self.recovery else []
            self._broadcast_abort()
        self._finalize()
        trace = None if self.trace is None else self.trace.snapshot(self.rank)
        self.result_queue.put(
            WorkerResult(self.rank, self.metrics, frames, trace, solution)
        )
        if self.metrics.error is not None or self.metrics.aborted:
            # Don't hang at exit flushing frames to peers that may be gone.
            for link in getattr(self, "links", {}).values():
                link.queue.cancel_join_thread()

    # ------------------------------------------------------------------
    def _setup(self) -> None:
        tg = self.tg
        self.chol = BlockCholesky(self.structure, self.A)
        self.inbox = self.fabric.inbox(self.rank)
        self.links = self.fabric.outgoing(self.rank)
        self.injector = None
        if self.fault_plan is not None and self.fault_plan.active:
            self.injector = FaultInjector(self.fault_plan, self.rank)
            self.links = self.injector.wrap_links(self.links)
        if self.arena is not None:
            # Descriptors are cheap and uniform — batch them per link and
            # ship one queue put per drain instead of one per block.
            for link in self.links.values():
                link.coalesce = True
        self._crash_after, self._crash_hard = self._crash_config()
        self._slow_s = (
            self.fault_plan.slow_for(self.rank) if self.fault_plan else 0.0
        )
        self.task_owner = self.owners[tg.task_block]
        self.mine = self.task_owner == self.rank
        self.n_owned = int(self.mine.sum())
        self.executed = 0
        self.mods_remaining = tg.nmod.copy()
        self.missing = tg.task_missing_init.copy()
        self.diag_ready = np.zeros(tg.nblocks, dtype=bool)
        self.scheduler = ReadyScheduler(self.priorities)
        #: Blocks whose final factored value is present locally (owned
        #: completions, received frames, checkpoint preloads). Drives both
        #: duplicate suppression and the abort-time checkpoint.
        self.have: set[int] = set()
        self.done_peers: set[int] = set()
        self._resends: dict[tuple[int, int], int] = {}
        self._reneg_attempts = 0
        self._last_reneg = 0.0
        # Checkpointed blocks are final: skip every task that writes them.
        done_block = np.zeros(tg.nblocks, dtype=bool)
        valid_ck = [
            int(b) for b in self.checkpoint if 0 <= int(b) < tg.nblocks
        ]
        done_block[valid_ck] = True
        self.skip_task = done_block[tg.task_block]
        self.executed += int((self.mine & self.skip_task).sum())
        # Deterministic accumulation: BMOD updates into a given destination
        # block are applied in ascending task id, regardless of message
        # arrival order. A BMOD whose sources arrive "early" is parked in
        # ``_bmod_src_ready`` until its predecessors for the same block have
        # run. Floating-point block sums are then bitwise reproducible
        # run-to-run and across transports.
        self._bmod_order: dict[int, list[int]] = {}
        for t in np.flatnonzero(
            (tg.task_kind == BMOD) & self.mine & ~self.skip_task
        ):
            self._bmod_order.setdefault(int(tg.task_block[t]), []).append(
                int(t)
            )
        self._bmod_next_idx: dict[int, int] = dict.fromkeys(
            self._bmod_order, 0
        )
        self._bmod_src_ready: set[int] = set()
        # Seed: owned diagonal blocks with no incoming BMODs.
        diag = tg.block_I == tg.block_J
        for b in np.flatnonzero(diag & (tg.nmod == 0)):
            if self.owners[b] == self.rank:
                self._push(int(tg.bfac_task[int(b)]))
        self._load_checkpoint(valid_ck)
        self.expected = self._expected_blocks() if self.recovery else set()
        # --- dynamic-schedule (work stealing) state -------------------
        self.dynamic = self.schedule == "dynamic" and self.fabric.nprocs > 1
        #: Tasks granted away and not yet returned: tid -> thief rank.
        self._stolen_out: dict[int, int] = {}
        #: Blocks installed via STEAL_SHIP (no dependency bookkeeping);
        #: the later regular frame re-runs bookkeeping exactly once.
        self._steal_srcs: set[int] = set()
        self._steal_round = 0
        self._steal_victim: int | None = None
        self._steal_backoff_until = 0.0
        # Panel -> diagonal block id (BDIV tasks carry src1 == -1, so the
        # steal path resolves a BDIV's diagonal source through this map).
        diag_ids = np.flatnonzero(diag)
        self._diag_block = np.full(tg.npanels, -1, dtype=np.int64)
        self._diag_block[tg.block_J[diag_ids]] = diag_ids
        # --- solve-phase state ----------------------------------------
        # Initialized during factor setup because solve frames may arrive
        # while this rank is still factoring (a fast peer enters its solve
        # loop as soon as its own factor tasks are done).
        self._phase = "factor"
        if self.rhs is not None:
            self._solve_init()

    def _crash_config(self) -> tuple[int | None, bool]:
        if (
            self.inject_failure is not None
            and self.rank == self.inject_failure[0]
        ):
            return int(self.inject_failure[1]), False
        if self.fault_plan is not None:
            spec = self.fault_plan.crash_for(self.rank)
            if spec is not None:
                return int(spec.after_tasks), bool(spec.hard)
        return None, False

    def _load_checkpoint(self, blocks: list[int]) -> None:
        """Preload final block values snapshotted by a previous attempt."""
        tg = self.tg
        for b in blocks:
            msg = wire.unpack(self.checkpoint[b])
            I, J = int(tg.block_I[b]), int(tg.block_J[b])
            self.have.add(b)
            if self.arena is not None:
                # Keep the invariant "b in have => slot b is valid": any
                # held block may later be served to a NACKing peer as a
                # descriptor. Re-writing the same final bytes from every
                # preloading worker is benign.
                self.arena.write(b, msg.payload)
            self.metrics.checkpoint_blocks_loaded += 1
            if self.trace is not None:
                self.trace.mark("checkpoint_load", self._now(),
                                {"block": b, "I": I, "J": J})
            if I == J:
                self.chol.diag[J] = msg.payload
                self.chol._factored[J] = True
                self._diag_completed(J)
            else:
                self.chol.below[J][I] = msg.payload
                self._subdiag_completed(b)

    def _expected_blocks(self) -> set[int]:
        """Remote blocks this worker still needs to receive."""
        tg = self.tg
        expected: set[int] = set()
        diag = tg.block_I == tg.block_J
        diag_of_panel = np.full(tg.npanels, -1, dtype=np.int64)
        diag_ids = np.flatnonzero(diag)
        diag_of_panel[tg.block_J[diag_ids]] = diag_ids
        own_sub = np.flatnonzero((self.owners == self.rank) & ~diag)
        d = diag_of_panel[tg.block_J[own_sub]]
        d = d[d >= 0]
        expected.update(int(x) for x in d[self.owners[d] != self.rank])
        mod_mine = (tg.task_kind == BMOD) & self.mine
        for src in (tg.task_src1, tg.task_src2):
            s = src[mod_mine]
            s = s[s >= 0]
            expected.update(int(x) for x in s[self.owners[s] != self.rank])
        return expected - self.have

    def _push(self, tid: int) -> None:
        """Schedule a task unless a checkpoint already supplies its output
        (the scheduler additionally dedups repeat pushes). BMODs are held
        back until they are the next update in their destination block's
        canonical order."""
        if self.skip_task[tid]:
            return
        if int(self.tg.task_kind[tid]) == BMOD and not self._bmod_is_next(tid):
            self._bmod_src_ready.add(tid)
            return
        self.scheduler.push(tid)

    def _bmod_is_next(self, tid: int) -> bool:
        b = int(self.tg.task_block[tid])
        order = self._bmod_order[b]
        return order[self._bmod_next_idx[b]] == tid

    def _bmod_advance(self, b: int) -> None:
        """A BMOD into ``b`` just ran: release its successor if its sources
        already arrived (it was parked waiting for canonical order)."""
        order = self._bmod_order[b]
        idx = self._bmod_next_idx[b] + 1
        self._bmod_next_idx[b] = idx
        if idx < len(order) and order[idx] in self._bmod_src_ready:
            self._bmod_src_ready.discard(order[idx])
            self.scheduler.push(order[idx])

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    def _loop(self) -> None:
        last_progress = self._now()
        while self.executed < self.n_owned:
            progressed = self._drain_inbox()
            if self.scheduler:
                tid = self.scheduler.pop()
                self._execute(tid)
                progressed = True
                if not self.scheduler:
                    # About to go idle (or wait on the inbox): ship any
                    # coalesced descriptor batches so consumers proceed.
                    self._flush_pending()
            elif not progressed:
                if self.dynamic:
                    self._maybe_request_steal()
                progressed = self._wait_for_message()
            now = self._now()
            if progressed:
                last_progress = now
                self._reneg_attempts = 0
            elif now - last_progress > self.stall_timeout_s:
                raise RuntimeError(
                    f"worker {self.rank} stalled: {self.executed}/"
                    f"{self.n_owned} tasks done, no messages for "
                    f"{self.stall_timeout_s:.0f}s (deadlock?)"
                )
            elif self.recovery and self.expected:
                self._maybe_renegotiate(now, last_progress)
        self._flush_pending()

    def _flush_pending(self) -> None:
        """Ship every link's coalesced batch (does *not* release frames a
        fault injector is deliberately delaying)."""
        for link in self.links.values():
            link.flush_pending()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _handle_item(self, item) -> bool:
        """Process one inbox item: a bare frame or a coalesced batch."""
        if isinstance(item, list):
            got = False
            for frame in item:
                got = self._handle_frame(frame) or got
            return got
        return self._handle_frame(item)

    def _drain_inbox(self) -> bool:
        got = False
        while True:
            try:
                item = self.inbox.get_nowait()
            except queue_mod.Empty:
                return got
            got = self._handle_item(item) or got

    def _wait_for_message(self) -> bool:
        t0 = self._now()
        cat = "solve_idle" if self._phase == "solve" else "idle"
        try:
            item = self.inbox.get(timeout=POLL_S)
        except queue_mod.Empty:
            t1 = self._now()
            self.timeline.add(cat, t0, t1)
            if self.trace is not None:
                self.trace.span(cat, "idle", t0, t1)
            return False
        t1 = self._now()
        self.timeline.add(cat, t0, t1)
        if self.trace is not None:
            self.trace.span(cat, "idle", t0, t1)
        return self._handle_item(item)

    def _handle_frame(self, frame: bytes) -> bool:
        """Process one incoming frame; returns True if it made progress
        (i.e. could unblock a task)."""
        t0 = self._now()
        m = self.metrics
        tr = self.trace
        try:
            msg = wire.unpack(frame, copy=False)
            if msg.kind == wire.BLOCK_REF:
                if self.arena is None:
                    raise wire.WireError(
                        "BLOCK_REF descriptor received but no arena is "
                        "attached (transport mismatch)"
                    )
                # Swap the descriptor for the read-only arena slot view;
                # a slot-CRC mismatch funnels into the same reject/NACK
                # path as inline payload corruption.
                msg = self.arena.resolve(msg)
        except wire.CorruptFrameError as exc:
            m.frames_rejected += 1
            if not self.recovery:
                raise RuntimeError(
                    f"worker {self.rank} rejected a corrupt frame "
                    f"(no recovery enabled): {exc}"
                ) from exc
            self._nack_corrupt(exc)
            t1 = self._now()
            self.timeline.add("comm", t0, t1)
            if tr is not None:
                tr.span("comm", "frame_rejected", t0, t1,
                        {"src": exc.src, "block": exc.block})
            return False
        except wire.WireError as exc:
            m.frames_rejected += 1
            if not self.recovery:
                raise RuntimeError(
                    f"worker {self.rank} received an undecodable frame "
                    f"(no recovery enabled): {exc}"
                ) from exc
            # Unattributable garbage: drop it; renegotiation re-requests
            # whatever it was supposed to carry.
            t1 = self._now()
            self.timeline.add("comm", t0, t1)
            if tr is not None:
                tr.span("comm", "undecodable", t0, t1)
            return False
        if msg.kind == wire.ABORT:
            m.control_received += 1
            if tr is not None:
                tr.mark("abort_recv", t0, {"src": msg.src})
            raise _Abort()
        if msg.kind == wire.DONE:
            m.control_received += 1
            self.done_peers.add(msg.src)
            t1 = self._now()
            self.timeline.add("comm", t0, t1)
            if tr is not None:
                tr.span("comm", "done_recv", t0, t1, {"src": msg.src})
            return True
        if msg.kind == wire.NACK:
            m.control_received += 1
            m.nacks_received += 1
            self._serve_nack(msg)
            t1 = self._now()
            self.timeline.add("comm", t0, t1)
            if tr is not None:
                tr.span("comm", "nack_recv", t0, t1,
                        {"src": msg.src, "block": msg.block})
            return False
        if msg.kind in wire.STEAL_KINDS:
            m.steal_messages_received += 1
            m.steal_bytes_received += len(frame)
            if msg.kind == wire.STEAL_REQ:
                return self._serve_steal_req(msg, t0)
            if msg.kind == wire.STEAL_DENY:
                self._steal_victim = None
                self._steal_round += 1
                m.steal_denies_received += 1
                # Brief backoff: all-busy or all-done peers would
                # otherwise draw a REQ/DENY ping-pong every poll tick.
                self._steal_backoff_until = self._now() + 0.01
                t1 = self._now()
                self.timeline.add("comm", t0, t1)
                if tr is not None:
                    tr.span("steal", "steal_deny_recv", t0, t1,
                            {"src": msg.src})
                return False
            if msg.kind == wire.STEAL_SHIP:
                self._apply_steal_ship(msg)
                t1 = self._now()
                self.timeline.add("comm", t0, t1)
                if tr is not None:
                    tr.span("steal", "steal_ship_recv", t0, t1,
                            {"block": msg.block, "src": msg.src})
                return False
            if msg.kind == wire.STEAL_GRANT:
                self._steal_victim = None
                self._steal_round += 1
                return self._handle_steal_grant(msg, t0)
            return self._handle_steal_result(msg, t0)
        if msg.kind in wire.SOLVE_KINDS:
            # Solve plane: its own ledger, fully inline payloads, so
            # logical bytes == wire bytes by construction.
            if self.rhs is None:
                raise RuntimeError(
                    f"worker {self.rank} received a solve frame "
                    f"(kind={msg.kind}) but carries no right-hand side"
                )
            m.solve_messages_received += 1
            m.solve_bytes_received += len(frame)
            return self._handle_solve_msg(msg, len(frame), t0)
        # Logical bytes (what the predictor charges) vs wire bytes (what
        # actually crossed the queue — 64 for a descriptor).
        m.messages_received += 1
        m.bytes_received += msg.nbytes
        m.wire_bytes_received += len(frame)
        b = msg.block
        if b in self.have:
            m.duplicates_dropped += 1
            t1 = self._now()
            self.timeline.add("comm", t0, t1)
            if tr is not None:
                tr.span("recv", "duplicate", t0, t1,
                        {"block": b, "src": msg.src, "bytes": msg.nbytes,
                         "wire_bytes": len(frame)})
            return False
        self._apply_block(msg)
        t1 = self._now()
        self.timeline.add("comm", t0, t1)
        if tr is not None:
            tg = self.tg
            tr.span(
                "recv",
                f"recv({int(tg.block_I[b])},{int(tg.block_J[b])})",
                t0, t1,
                {"block": b, "src": msg.src, "bytes": msg.nbytes,
                 "wire_bytes": len(frame)},
            )
        return True

    def _apply_block(self, msg: wire.WireMessage) -> None:
        tg = self.tg
        b = msg.block
        self.have.add(b)
        self.expected.discard(b)
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        if I == J:
            self.chol.diag[J] = msg.payload
            self.chol._factored[J] = True
            self._diag_completed(J)
        else:
            self.chol.below[J][I] = msg.payload
            self._subdiag_completed(b)

    # ------------------------------------------------------------------
    # Recovery protocol
    # ------------------------------------------------------------------
    def _nack_corrupt(self, exc: wire.CorruptFrameError) -> None:
        """Reject-and-renegotiate: ask the presumed sender to retransmit."""
        src, b = exc.src, exc.block
        target = -1
        if 0 <= src < self.fabric.nprocs and src != self.rank:
            target = src
        elif 0 <= b < self.tg.nblocks:
            owner = int(self.owners[b])
            if owner != self.rank:
                target = owner
        if target >= 0 and 0 <= b < self.tg.nblocks:
            self.links[target].send_control(wire.pack_nack(self.rank, b))
            self.metrics.nacks_sent += 1
            if self.trace is not None:
                self.trace.mark("nack_sent", self._now(),
                                {"block": b, "dst": target})

    def _serve_nack(self, msg: wire.WireMessage) -> None:
        """A peer wants block ``msg.block`` (again). Resend if we hold its
        final value; otherwise the normal fan-out will deliver it once it
        completes."""
        b, requester = msg.block, msg.src
        if not (0 <= b < self.tg.nblocks) or requester == self.rank:
            return
        if requester not in self.links or b not in self.have:
            return
        key = (b, requester)
        if self._resends.get(key, 0) >= RETRANSMIT_LIMIT:
            return
        self._resends[key] = self._resends.get(key, 0) + 1
        frame = self._frame_for(b)
        nbytes = self._logical_nbytes(b)
        self.links[requester].resend(frame, nbytes)
        self.metrics.retransmits += 1
        if self.trace is not None:
            self.trace.mark("retransmit", self._now(),
                            {"block": b, "dst": requester,
                             "bytes": nbytes, "wire_bytes": len(frame)})

    def _maybe_renegotiate(self, now: float, last_progress: float) -> None:
        """NACK owners of still-missing blocks under exponential backoff."""
        delay = min(
            self.renegotiate_base_s * (2.0 ** self._reneg_attempts),
            self.renegotiate_cap_s,
        )
        if now - max(last_progress, self._last_reneg) <= delay:
            return
        if self._reneg_attempts >= self.max_renegotiations:
            missing = sorted(self.expected)[:8]
            raise RuntimeError(
                f"worker {self.rank} unrecoverable: "
                f"{len(self.expected)} blocks still missing after "
                f"{self._reneg_attempts} renegotiations "
                f"(e.g. blocks {missing})"
            )
        self._reneg_attempts += 1
        self._last_reneg = now
        self.metrics.renegotiations += 1
        if self.trace is not None:
            self.trace.mark("renegotiate", now,
                            {"round": self._reneg_attempts,
                             "missing": len(self.expected)})
        for b in sorted(self.expected):
            owner = int(self.owners[b])
            if owner == self.rank or owner not in self.links:
                continue
            self.links[owner].send_control(wire.pack_nack(self.rank, b))
            self.metrics.nacks_sent += 1
            if self.trace is not None:
                self.trace.mark("nack_sent", self._now(),
                                {"block": b, "dst": owner})

    def _linger(self) -> None:
        """After finishing own tasks under recovery or dynamic schedule:
        release delayed frames, broadcast DONE, and keep serving peers
        until every one is done too — so no NACK ever targets a dead
        sender and no steal GRANT ever targets a dead thief (a finished
        worker answers STEAL_REQ with DENY but still executes a binding
        GRANT that raced its DONE)."""
        if not (self.recovery or self.dynamic) or not self.links:
            return
        for link in self.links.values():
            link.flush()
        done = wire.pack_done(self.rank)
        for link in self.links.values():
            link.send_control(done)
        if self.trace is not None:
            self.trace.mark("done_sent", self._now())
        peers = set(self.links)
        last_activity = self._now()
        while not peers <= self.done_peers:
            if self._wait_for_message():
                last_activity = self._now()
            elif self._now() - last_activity > self.stall_timeout_s:
                waiting = sorted(peers - self.done_peers)
                raise RuntimeError(
                    f"worker {self.rank} finished but peers {waiting} "
                    f"never reported DONE within "
                    f"{self.stall_timeout_s:.0f}s"
                )

    # ------------------------------------------------------------------
    # Distributed triangular solve (see docs/SOLVING.md)
    # ------------------------------------------------------------------
    # The factor never moves: FSOLVE/BSOLVE run where the diagonal block
    # lives, FUPD/BUPD run where the subdiagonal block lives, and only
    # right-hand-side fragments cross the wire (SOLVE_Y/X panel
    # broadcasts, SOLVE_FUP/BUP update fragments). Updates into a panel
    # are applied in ascending source order — exactly the sequential
    # reference's order — so the distributed solution is bitwise the
    # sequential one on every transport, schedule, and process count.

    def _solve_tid(self, kind: int, ident: int) -> int:
        return kind * self.tg.nblocks + ident

    def _push_solve(self, kind: int, ident: int) -> None:
        self.solve_scheduler.push(self._solve_tid(kind, ident))

    def _solve_init(self) -> None:
        tg = self.tg
        if self.rhs.ndim == 1:
            self.rhs = self.rhs.reshape(-1, 1)
        self.splan = sp = SolvePlan(self.structure, tg)
        n = int(sp.panel_ptr[-1])
        if self.rhs.shape[0] != n:
            raise ValueError(
                f"rhs has {self.rhs.shape[0]} rows, matrix has {n}"
            )
        self.nrhs = int(self.rhs.shape[1])
        rank = self.rank
        own_diag = [
            k
            for k in range(sp.npanels)
            if int(self.owners[sp.diag_block[k]]) == rank
        ]
        self._own_diag = set(own_diag)
        #: Forward accumulation buffers for owned panels (start as the
        #: permuted rhs fragment; updates subtract in canonical order;
        #: FSOLVE replaces the buffer with the solved panel).
        self._ypanel = {}
        for k in own_diag:
            c0, c1 = int(sp.panel_ptr[k]), int(sp.panel_ptr[k + 1])
            self._ypanel[k] = np.array(self.rhs[c0:c1])
        self._fwd_next = dict.fromkeys(own_diag, 0)
        self._fwd_pending: dict[int, dict[int, np.ndarray]] = {
            k: {} for k in own_diag
        }
        self._bwd_next = dict.fromkeys(own_diag, 0)
        self._bwd_pending: dict[int, dict[int, np.ndarray]] = {
            k: {} for k in own_diag
        }
        #: Backward accumulation buffers (created when FSOLVE completes,
        #: seeded from the solved forward panel — the sequential B).
        self._xbuf: dict[int, np.ndarray] = {}
        self._fsolve_done: set[int] = set()
        #: Final forward panels available locally (own or received).
        self._y_have: dict[int, np.ndarray] = {}
        #: Final solution panels available locally (own or received).
        self._x_have: dict[int, np.ndarray] = {}
        #: Owned solution panels shipped home in the WorkerResult.
        self._solution_panels: dict[int, np.ndarray] = {}
        self.solve_scheduler = ReadyScheduler(None)
        self.n_solve_owned = sp.owned_task_count(self.owners, rank)
        self.solve_executed = 0
        for k in own_diag:
            if sp.fwd_count[k] == 0:
                self._push_solve(_FSOLVE, k)

    def _solve_diag_owner(self, panel: int) -> int:
        return int(self.owners[self.splan.diag_block[panel]])

    def _solve_loop(self) -> None:
        self._phase = "solve"
        last_progress = self._now()
        while self.solve_executed < self.n_solve_owned:
            progressed = self._drain_inbox()
            if self.solve_scheduler:
                stid = self.solve_scheduler.pop()
                self._solve_execute(stid)
                progressed = True
            elif not progressed:
                progressed = self._wait_for_message()
            now = self._now()
            if progressed:
                last_progress = now
            elif now - last_progress > self.stall_timeout_s:
                raise RuntimeError(
                    f"worker {self.rank} stalled in solve: "
                    f"{self.solve_executed}/{self.n_solve_owned} solve "
                    f"tasks done, no messages for "
                    f"{self.stall_timeout_s:.0f}s (deadlock?)"
                )
        self._flush_pending()

    def _y_ready(self, k: int, panel: np.ndarray) -> None:
        """Forward panel ``Y_k`` is final here; wake owned FUPDs of
        column k."""
        self._y_have[k] = panel
        sp = self.splan
        for b in sp.col_blocks[k]:
            if int(self.owners[int(b)]) == self.rank:
                self._push_solve(_FUPD, int(b))

    def _x_ready(self, i: int, panel: np.ndarray) -> None:
        """Solution panel ``X_i`` is final here; wake owned BUPDs of
        row i."""
        self._x_have[i] = panel
        sp = self.splan
        for b in sp.row_blocks[i]:
            if int(self.owners[int(b)]) == self.rank:
                self._push_solve(_BUPD, int(b))

    def _fwd_deliver(self, i: int, b: int, u: np.ndarray) -> None:
        """Park a forward update into panel ``i`` and apply every parked
        update that is next in canonical (ascending-source) order."""
        self._fwd_pending[i][b] = u
        sp = self.splan
        order = sp.row_blocks[i]
        idx = self._fwd_next[i]
        pend = self._fwd_pending[i]
        Y = self._ypanel[i]
        while idx < order.shape[0]:
            nxt = int(order[idx])
            w = pend.pop(nxt, None)
            if w is None:
                break
            Y[sp.block_ridx[nxt]] -= w
            idx += 1
        self._fwd_next[i] = idx
        if idx == order.shape[0]:
            self._push_solve(_FSOLVE, i)

    def _bwd_deliver(self, k: int, b: int, u: np.ndarray) -> None:
        """Backward mirror of :meth:`_fwd_deliver` (ascending destination
        order down column ``k``); releases BSOLVE(k) when the buffer has
        absorbed every update."""
        self._bwd_pending[k][b] = u
        self._bwd_drain(k)

    def _bwd_drain(self, k: int) -> None:
        B = self._xbuf.get(k)
        if B is None:
            # FSOLVE(k) has not run; causally impossible for a remote
            # update, but the drain is re-run right after FSOLVE anyway.
            return
        sp = self.splan
        order = sp.col_blocks[k]
        idx = self._bwd_next[k]
        pend = self._bwd_pending[k]
        while idx < order.shape[0]:
            nxt = int(order[idx])
            u = pend.pop(nxt, None)
            if u is None:
                break
            B -= u
            idx += 1
        self._bwd_next[k] = idx
        if idx == order.shape[0] and k in self._fsolve_done:
            self._push_solve(_BSOLVE, k)

    def _handle_solve_msg(self, msg: wire.WireMessage, nbytes: int,
                          t0: float) -> bool:
        sp = self.splan
        if msg.kind == wire.SOLVE_Y:
            k = msg.block
            self._y_ready(k, np.asarray(msg.payload))
            name = f"y({k})"
        elif msg.kind == wire.SOLVE_X:
            i = msg.block
            self._x_ready(i, np.asarray(msg.payload))
            name = f"x({i})"
        elif msg.kind == wire.SOLVE_FUP:
            b = msg.block
            i = int(sp.block_I[b])
            self._fwd_deliver(i, b, np.asarray(msg.payload))
            name = f"fup({i},{int(sp.block_J[b])})"
        else:  # SOLVE_BUP
            b = msg.block
            k = int(sp.block_J[b])
            self._bwd_deliver(k, b, np.asarray(msg.payload))
            name = f"bup({int(sp.block_I[b])},{k})"
        t1 = self._now()
        self.timeline.add("solve_comm", t0, t1)
        if self.trace is not None:
            self.trace.span("solve_recv", name, t0, t1,
                            {"src": msg.src, "bytes": nbytes})
        return True

    def _solve_fan_out(self, frame: bytes, target_owners: np.ndarray,
                       name: str) -> None:
        """Send one solve frame to each distinct remote owner."""
        remote = np.unique(target_owners[target_owners != self.rank])
        if remote.size == 0:
            return
        t0 = self._now()
        for dst in remote:
            self.links[int(dst)].send_solve(frame)
        t1 = self._now()
        self.timeline.add("solve_comm", t0, t1)
        if self.trace is not None:
            self.trace.span("solve_send", name, t0, t1,
                            {"bytes": len(frame),
                             "targets": [int(d) for d in remote]})

    def _solve_send(self, frame: bytes, dst: int, name: str) -> None:
        t0 = self._now()
        self.links[dst].send_solve(frame)
        t1 = self._now()
        self.timeline.add("solve_comm", t0, t1)
        if self.trace is not None:
            self.trace.span("solve_send", name, t0, t1,
                            {"bytes": len(frame), "targets": [dst]})

    def _solve_execute(self, stid: int) -> None:
        tg = self.tg
        sp = self.splan
        kind, ident = divmod(stid, tg.nblocks)
        m = self.metrics
        t0 = self._now()
        if kind == _FSOLVE:
            k = ident
            w = int(sp.widths[k])
            panel = fsolve_kernel(self.chol.diag[k], self._ypanel[k])
            self._ypanel[k] = panel
            t1 = self._now()
            work = solve_flops(w, w, self.nrhs, diag=True)
            name = f"FSOLVE({k})"
        elif kind == _FUPD:
            b = ident
            i, k = int(sp.block_I[b]), int(sp.block_J[b])
            u = fupd_kernel(self.chol.below[k][i], self._y_have[k])
            t1 = self._now()
            rows = sp.block_rows_count(b)
            work = solve_flops(rows, int(sp.widths[k]), self.nrhs,
                               diag=False)
            name = f"FUPD({i},{k})"
        elif kind == _BSOLVE:
            k = ident
            w = int(sp.widths[k])
            panel = bsolve_kernel(self.chol.diag[k], self._xbuf[k])
            t1 = self._now()
            work = solve_flops(w, w, self.nrhs, diag=True)
            name = f"BSOLVE({k})"
        else:  # _BUPD
            b = ident
            i, k = int(sp.block_I[b]), int(sp.block_J[b])
            u = bupd_kernel(self.chol.below[k][i],
                            self._x_have[i][sp.block_ridx[b]])
            t1 = self._now()
            rows = sp.block_rows_count(b)
            work = solve_flops(rows, int(sp.widths[k]), self.nrhs,
                               diag=False)
            name = f"BUPD({i},{k})"
        self.timeline.add("solve_busy", t0, t1)
        m.solve_tasks_executed += 1
        m.solve_task_counts[_SOLVE_KIND_NAMES[kind]] += 1
        m.solve_work_executed += work
        self.solve_executed += 1
        if self.trace is not None:
            self.trace.span("solve_task", name, t0, t1,
                            {"id": ident, "work": work})
        if self._slow_s > 0.0:
            if self.injector is not None:
                self.injector.injected["slow"] += 1
            if self.trace is not None:
                self.trace.mark("slow", self._now(), {"s": self._slow_s})
            time.sleep(self._slow_s)
        if (
            self._crash_after is not None
            and self.executed + self.solve_executed >= self._crash_after
        ):
            if self.trace is not None:
                self.trace.mark(
                    "crash", self._now(),
                    {"after": self.executed + self.solve_executed,
                     "hard": self._crash_hard, "phase": "solve"},
                )
            if self._crash_hard:
                os._exit(17)
            raise RuntimeError(
                f"injected failure on worker {self.rank} after "
                f"{self.solve_executed} solve tasks"
            )
        # Post-task bookkeeping and fan-out.
        if kind == _FSOLVE:
            self._fsolve_done.add(k)
            self._xbuf[k] = panel.copy()
            self._solve_fan_out(
                wire.pack_solve_y(self.rank, k, panel),
                self.owners[sp.col_blocks[k]],
                f"y({k})",
            )
            self._y_ready(k, panel)
            self._bwd_drain(k)
        elif kind == _FUPD:
            dst = self._solve_diag_owner(i)
            if dst == self.rank:
                self._fwd_deliver(i, b, u)
            else:
                self._solve_send(
                    wire.pack_solve_fup(self.rank, b, u), dst,
                    f"fup({i},{k})",
                )
        elif kind == _BSOLVE:
            self._solution_panels[k] = panel
            self._solve_fan_out(
                wire.pack_solve_x(self.rank, k, panel),
                self.owners[sp.row_blocks[k]],
                f"x({k})",
            )
            self._x_ready(k, panel)
        else:  # _BUPD
            dst = self._solve_diag_owner(k)
            if dst == self.rank:
                self._bwd_deliver(k, b, u)
            else:
                self._solve_send(
                    wire.pack_solve_bup(self.rank, b, u), dst,
                    f"bup({i},{k})",
                )

    def run_solve(self, rhs, fabric, result_queue, trace_capacity: int = 0,
                  fault_plan: FaultPlan | None = None) -> None:
        """Re-arm a retained, already-factored worker for one warm solve
        job (the persistent pool's path): fresh fabric, fresh metrics and
        trace, only right-hand-side values in and solution panels out —
        the factor stays resident and ships zero bytes."""
        self.fabric = fabric
        self.inbox = fabric.inbox(self.rank)
        self.links = fabric.outgoing(self.rank)
        self.result_queue = result_queue
        self.rhs = np.ascontiguousarray(rhs, dtype=np.float64)
        self.metrics = WorkerMetrics(rank=self.rank)
        self.timeline = TimelineRecorder(enabled=self.record_timeline)
        self.trace = TraceRecorder(trace_capacity) if trace_capacity else None
        self.done_peers = set()
        self.fault_plan = fault_plan
        self.injector = None
        self._crash_after, self._crash_hard = self._crash_config()
        self._slow_s = (
            fault_plan.slow_for(self.rank) if fault_plan else 0.0
        )
        solution = None
        try:
            self._solve_init()
            self._solve_loop()
            solution = self._solution_panels
        except _Abort:
            self.metrics.aborted = True
        except BaseException:  # noqa: BLE001 - reported to the driver
            self.metrics.error = traceback.format_exc()
            self._broadcast_abort()
        self._finalize()
        trace = None if self.trace is None else self.trace.snapshot(self.rank)
        self.result_queue.put(
            WorkerResult(self.rank, self.metrics, [], trace, solution)
        )
        if self.metrics.error is not None or self.metrics.aborted:
            for link in self.links.values():
                link.queue.cancel_join_thread()

    # ------------------------------------------------------------------
    # Work stealing (dynamic schedule)
    # ------------------------------------------------------------------
    # Ownership of the *update* migrates, never of the block. The victim
    # ships the destination block's current partial state in the GRANT;
    # the thief runs the identical kernel on those identical bytes at the
    # task's canonical accumulation position and ships the state back in a
    # RESULT, which the victim swaps in before doing the normal post-task
    # bookkeeping. Same kernel + same input bytes + same position ==
    # bitwise-identical factors, whichever rank executed the task.
    #
    # Safe-grant invariant: any BMOD in the ready queue is the canonical
    # next update for its destination block (_push parks the rest), and
    # BDIV/BFAC only enqueue once mods_remaining hits zero — so at most
    # one update per destination is ever in flight, and the victim never
    # touches a granted-out destination until the RESULT returns (the
    # successor BMOD stays parked, executed < n_owned keeps the loop
    # alive, and sources are only read once a block is final).

    def _pick_victim(self) -> int | None:
        """Deterministic seeded victim choice keyed on (seed, round,
        rank): reproducible given the same knobs, uncorrelated between
        thieves so they don't dog-pile one victim."""
        peers = sorted(d for d in self.links if d not in self.done_peers)
        if not peers:
            return None
        seed = (
            self.steal_seed * 2654435761
            + self._steal_round * 40503
            + self.rank
        ) & 0xFFFFFFFF
        return peers[random.Random(seed).randrange(len(peers))]

    def _maybe_request_steal(self) -> None:
        """Idle and out of ready work: ask one peer for a task. At most
        one outstanding request; a DENY advances the round and backs off
        briefly before the next attempt."""
        if self._steal_victim is not None:
            return
        now = self._now()
        if now < self._steal_backoff_until:
            return
        victim = self._pick_victim()
        if victim is None:
            return
        self._steal_victim = victim
        self.metrics.steal_reqs_sent += 1
        self.links[victim].send_steal(
            wire.pack_steal_req(self.rank, self._steal_round)
        )
        t1 = self._now()
        self.timeline.add("comm", now, t1)
        if self.trace is not None:
            self.trace.span("steal", "steal_req", now, t1,
                            {"victim": victim, "round": self._steal_round})

    def _task_sources(self, tid: int) -> list[int]:
        """Final source blocks a stolen task reads (BDIV tasks carry
        ``src1 == -1``; their one source is the panel's diagonal)."""
        tg = self.tg
        if int(tg.task_kind[tid]) == BDIV:
            b = int(tg.task_block[tid])
            return [int(self._diag_block[int(tg.block_J[b])])]
        srcs: list[int] = []
        for s in (int(tg.task_src1[tid]), int(tg.task_src2[tid])):
            if s >= 0 and s not in srcs:
                srcs.append(s)
        return srcs

    def _serve_steal_req(self, msg: wire.WireMessage, t0: float) -> bool:
        """Grant the steal-end task of our queue, or DENY. Grants only
        BMOD/BDIV (BFAC pivots are cheap and fan out locally) and only
        while we keep at least one ready task for ourselves."""
        thief = msg.src
        tg = self.tg
        tid = None
        if self.dynamic and thief in self.links and len(self.scheduler) >= 2:
            tid = self.scheduler.steal(
                lambda t: int(tg.task_kind[t]) != BFAC
            )
        m = self.metrics
        if tid is None:
            m.steal_denies += 1
            self.links[thief].send_steal(
                wire.pack_steal_deny(self.rank, msg.block)
            )
            t1 = self._now()
            self.timeline.add("comm", t0, t1)
            if self.trace is not None:
                self.trace.span("steal", "steal_deny", t0, t1,
                                {"thief": thief})
            return False
        b = int(tg.task_block[tid])
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        if self.arena is None:
            # Inline transport: ship the final sources ahead of the grant
            # (same link, FIFO — they land first). On shm the thief reads
            # them straight from the arena instead.
            for s in self._task_sources(tid):
                sI, sJ = int(tg.block_I[s]), int(tg.block_J[s])
                arr = (
                    self.chol.diag[sJ]
                    if sI == sJ
                    else self.chol.below[sJ][sI]
                )
                self.links[thief].send_steal(
                    wire.pack_steal_ship(self.rank, s, sI, sJ, arr)
                )
        dest = self.chol.diag[J] if I == J else self.chol.below[J][I]
        self.links[thief].send_steal(
            wire.pack_steal_grant(self.rank, tid, I == J, dest)
        )
        self._stolen_out[tid] = thief
        work = int(tg.task_flops[tid]) + self.op_fixed_cost
        m.steal_grants += 1
        m.tasks_shipped += 1
        m.work_shipped += work
        t1 = self._now()
        self.timeline.add("comm", t0, t1)
        if self.trace is not None:
            self.trace.span("steal", "steal_grant", t0, t1,
                            {"tid": tid, "thief": thief, "work": work})
        return False

    def _apply_steal_ship(self, msg: wire.WireMessage) -> None:
        """Install a steal-shipped final source block *without* dependency
        bookkeeping: the regular fan-out frame for it still arrives later
        and runs the bookkeeping exactly once (its bytes are identical, so
        the overwrite is a no-op numerically)."""
        b = msg.block
        if b in self.have or b in self._steal_srcs:
            return
        tg = self.tg
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        if I == J:
            self.chol.diag[J] = msg.payload
            self.chol._factored[J] = True
        else:
            self.chol.below[J][I] = msg.payload
        self._steal_srcs.add(b)

    def _handle_steal_grant(self, msg: wire.WireMessage, t0: float) -> bool:
        """A victim granted us task ``msg.block`` (a task id, not a block
        id) and shipped the destination's partial state. Install sources
        and state, then execute."""
        tg = self.tg
        tid = msg.block
        victim = msg.src
        b = int(tg.task_block[tid])
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        if self.arena is not None:
            for s in self._task_sources(tid):
                if s in self.have or s in self._steal_srcs:
                    continue
                sI, sJ = int(tg.block_I[s]), int(tg.block_J[s])
                arr = self.arena.read(s)
                if sI == sJ:
                    self.chol.diag[sJ] = arr
                    self.chol._factored[sJ] = True
                else:
                    self.chol.below[sJ][sI] = arr
                self._steal_srcs.add(s)
        # Writable C-contiguous copy: BDIV solves in place, and the BMOD
        # fused kernel's fast path requires a writable contiguous dest
        # (falling off it would round differently and break bitwise
        # identity with the victim having run the task itself).
        state = np.array(msg.payload)
        if I == J:
            self.chol.diag[J] = state
        else:
            self.chol.below[J][I] = state
        t1 = self._now()
        self.timeline.add("comm", t0, t1)
        if self.trace is not None:
            self.trace.span("steal", "steal_grant_recv", t0, t1,
                            {"tid": tid, "victim": victim})
        self._execute_stolen(tid, victim)
        return True

    def _execute_stolen(self, tid: int, victim: int) -> None:
        """Run a stolen task and ship the resulting destination state
        back. Counts toward our executed-work metrics (and the stolen
        tallies) but *not* toward ``executed`` — that is the victim's
        owned-task counter and ticks when the RESULT lands there."""
        tg = self.tg
        kind = int(tg.task_kind[tid])
        b = int(tg.task_block[tid])
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        # No BDIV layout juggling needed here: bdiv_kernel canonicalizes
        # L_KK to C order itself, so our copy of the diagonal (F if we
        # factored it, C if it came over a link or out of an arena slot)
        # yields exactly the bits the victim would have computed.
        t0 = self._now()
        self.chol.apply_task(tg, tid)
        t1 = self._now()
        self.timeline.add("busy", t0, t1)
        m = self.metrics
        m.tasks_executed += 1
        m.task_counts[_KIND_NAMES[kind]] += 1
        flops = int(tg.task_flops[tid])
        work = flops + self.op_fixed_cost
        m.flops_executed += flops
        m.work_executed += work
        m.tasks_stolen += 1
        m.work_stolen += work
        if self.trace is not None:
            self.trace.span(
                "task",
                f"{_KIND_NAMES[kind]}({I},{J})",
                t0, t1,
                {"tid": tid, "block": b, "flops": flops, "work": work,
                 "stolen_from": victim},
            )
        if self._slow_s > 0.0:
            if self.injector is not None:
                self.injector.injected["slow"] += 1
            if self.trace is not None:
                self.trace.mark("slow", self._now(), {"s": self._slow_s})
            time.sleep(self._slow_s)
        dest = self.chol.diag[J] if I == J else self.chol.below[J][I]
        t2 = self._now()
        self.links[victim].send_steal(
            wire.pack_steal_result(self.rank, tid, I == J, dest)
        )
        t3 = self._now()
        self.timeline.add("comm", t2, t3)
        if self.trace is not None:
            self.trace.span("steal", "steal_result", t2, t3,
                            {"tid": tid, "victim": victim, "work": work})

    def _handle_steal_result(self, msg: wire.WireMessage, t0: float) -> bool:
        """The thief returned the destination state for a task we granted
        away: swap it in, count it as one of our owned executions, and do
        the normal post-task bookkeeping (fan-out, wake-ups)."""
        tg = self.tg
        tid = msg.block
        thief = msg.src
        self._stolen_out.pop(tid, None)
        kind = int(tg.task_kind[tid])
        b = int(tg.task_block[tid])
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        state = np.array(msg.payload)
        if I == J:
            self.chol.diag[J] = state
        else:
            self.chol.below[J][I] = state
        self.executed += 1
        work = int(tg.task_flops[tid]) + self.op_fixed_cost
        # Close the comm span before the dispatch below: _fan_out times
        # its own comm segment and must not be double-counted here.
        t1 = self._now()
        self.timeline.add("comm", t0, t1)
        if self.trace is not None:
            self.trace.span("steal", "steal_result_recv", t0, t1,
                            {"tid": tid, "thief": thief, "work": work})
        if kind == BMOD:
            self._bmod_advance(b)
            self.mods_remaining[b] -= 1
            if self.mods_remaining[b] == 0:
                self._block_mods_done(b)
        else:  # BDIV (BFAC is never granted)
            self._publish(b)
            deps = tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]
            self._fan_out(b, self.task_owner[deps])
            self._subdiag_completed(b)
        return True

    # ------------------------------------------------------------------
    # Dependency bookkeeping (local mirror of the simulator's)
    # ------------------------------------------------------------------
    def _diag_completed(self, k: int) -> None:
        """``L_KK`` is available here; wake owned BDIVs of panel k."""
        tg = self.tg
        sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
        for b in sub:
            b = int(b)
            if self.owners[b] != self.rank:
                continue
            self.diag_ready[b] = True
            if self.mods_remaining[b] == 0:
                self._push(int(tg.bdiv_task[b]))

    def _subdiag_completed(self, b: int) -> None:
        """``L_IK`` is available here; decrement owned consumer BMODs."""
        tg = self.tg
        for t in tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]:
            t = int(t)
            if self.task_owner[t] != self.rank:
                continue
            self.missing[t] -= 1
            if self.missing[t] == 0:
                self._push(t)

    def _block_mods_done(self, b: int) -> None:
        tg = self.tg
        if tg.block_I[b] == tg.block_J[b]:
            self._push(int(tg.bfac_task[b]))
        elif self.diag_ready[b]:
            self._push(int(tg.bdiv_task[b]))

    # ------------------------------------------------------------------
    # Executing and fanning out
    # ------------------------------------------------------------------
    def _execute(self, tid: int) -> None:
        tg = self.tg
        t0 = self._now()
        self.chol.apply_task(tg, tid)
        t1 = self._now()
        self.timeline.add("busy", t0, t1)

        kind = int(tg.task_kind[tid])
        b = int(tg.task_block[tid])
        m = self.metrics
        m.tasks_executed += 1
        m.task_counts[_KIND_NAMES[kind]] += 1
        flops = int(tg.task_flops[tid])
        m.flops_executed += flops
        m.work_executed += flops + self.op_fixed_cost
        self.executed += 1
        if self.trace is not None:
            self.trace.span(
                "task",
                f"{_KIND_NAMES[kind]}"
                f"({int(tg.block_I[b])},{int(tg.block_J[b])})",
                t0, t1,
                {"tid": tid, "block": b, "flops": flops,
                 "work": flops + self.op_fixed_cost},
            )
        if self._slow_s > 0.0:
            if self.injector is not None:
                self.injector.injected["slow"] += 1
            if self.trace is not None:
                self.trace.mark("slow", self._now(), {"s": self._slow_s})
            time.sleep(self._slow_s)
        if self._crash_after is not None and self.executed >= self._crash_after:
            if self.trace is not None:
                self.trace.mark(
                    "crash", self._now(),
                    {"after": self.executed, "hard": self._crash_hard},
                )
            if self._crash_hard:
                # A stand-in for a segfault/OOM kill: vanish without
                # reporting. The driver notices the dead child.
                os._exit(17)
            raise RuntimeError(
                f"injected failure on worker {self.rank} after "
                f"{self.executed} tasks"
            )

        if kind == BMOD:
            self._bmod_advance(b)
            self.mods_remaining[b] -= 1
            if self.mods_remaining[b] == 0:
                self._block_mods_done(b)
        elif kind == BFAC:
            self._publish(b)
            k = int(tg.block_J[b])
            sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
            self._fan_out(b, self.owners[sub])
            self._diag_completed(k)
        else:  # BDIV
            self._publish(b)
            deps = tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]
            self._fan_out(b, self.task_owner[deps])
            self._subdiag_completed(b)

    def _publish(self, b: int) -> None:
        """Mark block ``b`` final and, on the shm transport, copy it into
        its arena slot (the producer's single copy) before any descriptor
        for it can be sent — to peers *or* to the driver gather."""
        self.have.add(b)
        if self.arena is not None:
            tg = self.tg
            I, J = int(tg.block_I[b]), int(tg.block_J[b])
            arr = self.chol.diag[J] if I == J else self.chol.below[J][I]
            self.arena.write(b, arr)

    def _fan_out(self, b: int, target_owners: np.ndarray) -> None:
        """Send completed block ``b`` once to each distinct remote owner."""
        remote = np.unique(target_owners[target_owners != self.rank])
        if remote.size == 0:
            return
        t0 = self._now()
        frame = self._frame_for(b)
        nbytes = self._logical_nbytes(b)
        for dst in remote:
            self.links[int(dst)].send(frame, nbytes)
        t1 = self._now()
        self.timeline.add("comm", t0, t1)
        if self.trace is not None:
            tg = self.tg
            self.trace.span(
                "send",
                f"send({int(tg.block_I[b])},{int(tg.block_J[b])})",
                t0, t1,
                {"block": b, "bytes": nbytes, "wire_bytes": len(frame),
                 "targets": [int(d) for d in remote]},
            )

    def _logical_nbytes(self, b: int) -> int:
        """Logical frame bytes for block ``b`` — exactly what the static
        predictor charges, independent of the transport."""
        return wire.HEADER_BYTES + 8 * int(self.tg.block_words[b])

    def _frame_for(self, b: int, inline: bool = False) -> bytes:
        if self.arena is not None and not inline:
            return self.arena.pack_ref(self.rank, b)
        tg = self.tg
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        arr = self.chol.diag[J] if I == J else self.chol.below[J][I]
        return wire.pack_block(self.rank, b, I, J, arr)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    # Frames bound for the driver carry their payload on every transport:
    # arena slots are reused by the pattern's next job and the arena may
    # be gone before a salvaged checkpoint is read.

    def _gather_frames(self) -> list[bytes]:
        """Frames for every block this worker owns (the result gather)."""
        return [
            self._frame_for(int(b), inline=True)
            for b in np.flatnonzero(self.owners == self.rank)
        ]

    def _checkpoint_frames(self) -> list[bytes]:
        """Frames for every *completed* block held locally — the snapshot
        a restarted attempt resumes from. Safe on partially-initialized
        workers."""
        if not hasattr(self, "chol"):
            return []
        return [self._frame_for(b, inline=True) for b in sorted(self.have)]

    def _broadcast_abort(self) -> None:
        if self.trace is not None:
            self.trace.mark("abort_sent", self._now())
        frame = wire.pack_abort(self.rank)
        for link in getattr(self, "links", {}).values():
            try:
                link.send_control(frame)
            except Exception:  # pragma: no cover - peer already gone
                pass

    def _finalize(self) -> None:
        m = self.metrics
        m.busy_s = self.timeline.totals["busy"]
        m.comm_s = self.timeline.totals["comm"]
        m.idle_s = self.timeline.totals["idle"]
        m.solve_busy_s = self.timeline.totals["solve_busy"]
        m.solve_comm_s = self.timeline.totals["solve_comm"]
        m.solve_idle_s = self.timeline.totals["solve_idle"]
        m.timeline = list(self.timeline.segments)
        for dst, link in getattr(self, "links", {}).items():
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
        injector = getattr(self, "injector", None)
        if injector is not None:
            m.faults_injected = {
                k: v for k, v in injector.injected.items() if v
            }
        if self.trace is not None:
            m.trace_events = len(self.trace.events)
            m.trace_dropped = self.trace.dropped
