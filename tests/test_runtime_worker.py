"""The worker's seams, exercised without a process: ``Worker``s are built
over an in-memory fabric (``LinkFabric(P, queue)``) and driven by hand —
the handler table, the non-blocking ``step`` (two ranks interleaved in
one thread, factor + solve, bitwise vs sequential; how soon a rank with a
full ready queue reads its inbox), each control / steal handler on its
own, and hypothesis-fuzzed input to the receive prologue (an
arena-attached rank's descriptor path included).

Only the last class spawns processes: it pins that the per-operation
fixed cost comes from the task graph's own work model on every path."""

import dataclasses
import gc
import queue

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.analysis.trace_replay import validate_trace
from repro.blocks import WorkModel
from repro.config import RunConfig
from repro.fanout import TaskGraph
from repro.numeric import BlockCholesky
from repro.numeric.solve import block_solve_permuted
from repro.runtime import (
    LinkFabric,
    PatternContext,
    PoolJob,
    Worker,
    WorkerPool,
    plan_owners,
    run_mp_fanout,
    wire,
)
from repro.runtime.arena import BlockArena, shm_available
from repro.runtime.engine import outcome_result
from repro.runtime.pool import JobOutcome
from repro.runtime.worker import (
    DRAIN_EVERY,
    Phase,
    WorkerResult,
    _Abort,
)

KIND_NAMES = (
    "BLOCK ABORT DONE BLOCK_REF STEAL_REQ STEAL_GRANT STEAL_DENY "
    "STEAL_SHIP STEAL_RESULT SOLVE_Y SOLVE_FUP SOLVE_X SOLVE_BUP"
).split()


def _context(pipeline, nprocs, schedule="static"):
    _, sf, _, bs, wm, tg = pipeline
    owners, _ = plan_owners(wm, tg, nprocs, "DW/CY", False)
    A = sf.A.tocsc()
    ctx = PatternContext(
        pattern_id="t", structure=bs, tg=tg, owners=owners,
        indptr=A.indptr, indices=A.indices, shape=tuple(A.shape),
        config=RunConfig(schedule=schedule),
    )
    return ctx, A


def _crew(pipeline, nprocs=2, schedule="static", **job):
    """``nprocs`` set-up Workers of one job over ``queue.Queue`` inboxes."""
    ctx, A = _context(pipeline, nprocs, schedule)
    spec = PoolJob(seq=0, pattern_id="t", values=A.data, **job)
    fabric = LinkFabric(nprocs, queue)
    workers = [
        Worker(r, ctx, spec, None, fabric, queue.Queue())
        for r in range(nprocs)
    ]
    for w in workers:
        w._setup(True)
    return workers, fabric


def _sent(fabric, rank):
    """Decoded frames queued for ``rank`` (drains its inbox)."""
    out = []
    while not fabric.inboxes[rank].empty():
        out.append(wire.unpack(fabric.inboxes[rank].get_nowait()))
    return out


def _remote_block(w, seq_chol):
    """A final block frame from rank 1 that rank 0 does not own."""
    b = int(np.flatnonzero(w.owners == 1)[0])
    I, J = w.plan.coords[b]
    arr = seq_chol.diag[J] if I == J else seq_chol.below[J][I]
    return b, wire.pack_block(1, b, I, J, arr)


def _state(w):
    """Everything a frame could change besides the receive ledger."""
    return (
        set(w.have), len(w.scheduler), list(w.readiness.wait),
        list(w.readiness.need), w.executed,
        [d.copy() for d in w.chol.diag],
    )


def _same(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray)
        else all(map(np.array_equal, x, y)) if isinstance(x, list)
        else x == y
        for x, y in zip(a, b)
    )


@pytest.fixture(scope="module")
def seq_chol(grid12_pipeline):
    _, sf, _, bs, _, _ = grid12_pipeline
    return BlockCholesky(bs, sf.A).factor()


class TestHandlerTable:
    def test_every_wire_kind_has_a_handler(self, grid12_pipeline):
        (w, _), _ = _crew(grid12_pipeline)
        kinds = {getattr(wire, name) for name in KIND_NAMES}
        assert kinds == set(
            wire.DATA_KINDS + wire.CONTROL_KINDS + wire.STEAL_KINDS
            + wire.SOLVE_KINDS
        )
        assert set(w.handlers) == kinds
        assert all(callable(h) for h in w.handlers.values())

    def test_unarmed_solve_kind_is_refused(self, grid12_pipeline):
        (w, _), _ = _crew(grid12_pipeline)  # no rhs: no solve plane
        frame = wire.pack_solve_y(1, 0, np.zeros((8, 1)))
        with pytest.raises(RuntimeError, match="no right-hand side"):
            w.receive(frame)

    def test_armed_solve_kinds_are_the_solve_handlers(self, grid12_pipeline):
        n = grid12_pipeline[1].A.shape[0]
        (w, _), _ = _crew(grid12_pipeline, rhs=np.ones((n, 1)))
        assert w.handlers[wire.SOLVE_Y] == w._on_y
        assert w.handlers[wire.SOLVE_BUP] == w._on_bup

    def test_a_rearmed_worker_keeps_its_solve_plan(self, grid12_pipeline):
        """A warm solve re-arms the resident worker: the per-pattern
        ``SolvePlan`` is built once, fresh solve state every time."""
        n = grid12_pipeline[1].A.shape[0]
        (w, _), fabric = _crew(grid12_pipeline, rhs=np.ones((n, 1)))
        plan, panels = w.splan, w._z
        warm = PoolJob(seq=1, pattern_id="t", values=None, kind="solve",
                       rhs=np.full((n, 2), 2.0))
        w.arm(warm, fabric, queue.Queue())
        w._setup(False)
        assert w.splan is plan
        assert w._z is not panels and w.nrhs == 2


class TestInterleavedRanks:
    """Two ranks stepped alternately in one thread run the whole job."""

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_factor_and_solve_bitwise(self, grid12_pipeline, seq_chol,
                                      schedule):
        _, sf, _, bs, _, tg = grid12_pipeline
        rhs = np.random.default_rng(3).standard_normal((sf.A.shape[0], 2))
        workers, _ = _crew(grid12_pipeline, 2, schedule, rhs=rhs)
        gens = [w.phases() for w in workers]
        nphases = 0
        while True:
            phases = [next(g, None) for g in gens]
            if phases[0] is None:
                assert phases == [None, None]
                break
            nphases += 1
            for _ in range(200_000):
                if not any(p.left() for p in phases):
                    break
                for w, p in zip(workers, phases):
                    # The DENY backoff is wall-clock; lifted here, one
                    # thread's interleaving decides every steal.
                    w._steal_backoff_until = 0.0
                    w.step(p)
            else:
                pytest.fail(f"phase {phases[0].what!r} never finished")
        # factor + solve, plus the DONE linger under the dynamic schedule
        assert nphases == (3 if schedule == "dynamic" else 2)

        results = {}
        for w in workers:
            w._finalize()
            frames = w._frames(np.flatnonzero(w.owners == w.rank))
            results[w.rank] = WorkerResult(
                w.rank, w.metrics, frames, None, w._solution_panels
            )
        factor, solution, metrics, _ = outcome_result(
            JobOutcome(seq=0, results=results), bs, tg, True, rhs,
            config=RunConfig(schedule=schedule),
        )
        ref = seq_chol.to_csc()
        L = factor.to_csc()
        assert np.array_equal(L.indptr, ref.indptr)
        assert np.array_equal(L.indices, ref.indices)
        assert np.array_equal(L.data, ref.data)
        assert np.array_equal(solution, block_solve_permuted(seq_chol, rhs))

        owners = workers[0].owners
        pred = communication_volume(tg, owners)
        assert metrics.messages_total == pred.messages
        assert metrics.bytes_total == pred.bytes
        spred = solve_communication_volume(tg, owners, nrhs=2)
        assert metrics.solve_messages_total == spred.messages
        assert metrics.solve_bytes_total == spred.bytes
        # Work is the model's, whoever ran it.
        assert sum(w.work_executed for w in metrics.workers) == int(
            tg.workmodel.work.sum()
        )
        if schedule == "static":
            assert metrics.steal_reqs_total == 0
        else:
            # Single-threaded stepping makes stealing deterministic here.
            assert metrics.tasks_stolen_total > 0


class TestShareReadiness:
    """Readiness is tracked per share — the blocks of one column a rank
    owns — on a 2 x 2 grid, one rank fed frames by hand."""

    @staticmethod
    def _queued(w, o):
        return w.tg.ntasks + o in w.scheduler._fifo

    @staticmethod
    def _deliver(w, seq_chol, blocks):
        for b in blocks:
            I, J = w.plan.coords[b]
            arr = seq_chol.diag[J] if I == J else seq_chol.below[J][I]
            assert w.receive(wire.pack_block(int(w.owners[b]), b, I, J, arr))

    def test_a_pfac_off_the_diagonal_waits_for_l_kk(self, grid12_pipeline,
                                                     seq_chol):
        workers, _ = _crew(grid12_pipeline, 4)
        w, o = next(
            (w, w.plan.nupdates + f) for w in workers
            for f, op in enumerate(w.plan.factors)
            if not op[4] and not w.plan.pred[w.plan.nupdates + f]
        )
        K = w.plan.factors[o - w.plan.nupdates][0]
        d = int(w.tg.diag_block[K])
        assert w.owners[d] != w.rank and w.plan.wait[o] == 1
        assert not self._queued(w, o)
        self._deliver(w, seq_chol, [d])
        assert self._queued(w, o)

    def test_a_pmod_reading_two_shares_waits_for_both(self, grid12_pipeline,
                                                      seq_chol):
        workers, _ = _crew(grid12_pipeline, 4)

        def shares(w, o):
            tids = w.plan.updates.ops[o][3]
            srcs = {s for t in tids for s in w.plan.sources(t)}
            return {int(w.owners[s]) for s in srcs}

        w, o = next(
            (w, o) for w in workers for o in range(w.plan.nupdates)
            if not w.plan.pred[o] and len(shares(w, o)) == 2
            and w.rank not in shares(w, o)
        )
        K, tg = w.plan.updates.ops[o][0], w.tg
        column = tg.subdiag_blocks[tg.subdiag_ptr[K] : tg.subdiag_ptr[K + 1]]
        first, second = (
            [int(b) for b in column
             if w.owners[b] == g and w.plan.event[b] >= 0]
            for g in sorted(shares(w, o))
        )
        assert w.plan.wait[o] == 2
        self._deliver(w, seq_chol, first)
        assert not self._queued(w, o)
        self._deliver(w, seq_chol, second[:-1])
        assert not self._queued(w, o)
        self._deliver(w, seq_chol, second[-1:])
        assert self._queued(w, o)


class TestDrainCadence:
    """A rank with ready tasks reads its inbox every ``DRAIN_EVERY`` steps,
    one with none on every step: the bound on how long an ABORT or a steal
    request waits."""

    @staticmethod
    def _busy(ntasks):
        """A phase of ``ntasks`` ready no-op tasks, and the log of the ones
        that ran."""
        ran = []
        ready = list(range(ntasks))
        return Phase("fake tasks", lambda: len(ready), ready, ran.append), ran

    def test_abort_stops_a_busy_rank_within_the_bound(self, grid12_pipeline):
        (w, _), fabric = _crew(grid12_pipeline)
        phase, ran = self._busy(3 * DRAIN_EVERY)
        for _ in range(5):      # anywhere in the cadence, not just its start
            w.step(phase)
        fabric.inboxes[0].put(wire.pack_abort(1))
        with pytest.raises(_Abort):
            for _ in range(DRAIN_EVERY):
                w.step(phase)
        assert len(ran) < 5 + DRAIN_EVERY

    def test_steal_req_is_answered_within_the_bound(self, grid12_pipeline):
        (w, _), fabric = _crew(grid12_pipeline, schedule="dynamic")
        phase, ran = self._busy(3 * DRAIN_EVERY)
        fabric.inboxes[0].put(wire.pack_steal_req(1, 0))
        for _ in range(DRAIN_EVERY - 1):
            w.step(phase)
        assert _sent(fabric, 1) == []       # not a syscall per task
        w.step(phase)
        (answer,) = _sent(fabric, 1)
        assert answer.kind in (wire.STEAL_GRANT, wire.STEAL_DENY)
        assert len(ran) == DRAIN_EVERY
        # ... and the cadence starts over.
        fabric.inboxes[0].put(wire.pack_steal_req(1, 1))
        for _ in range(DRAIN_EVERY):
            w.step(phase)
        assert len(_sent(fabric, 1)) == 1

    def test_idle_rank_drains_on_every_step(self, grid12_pipeline):
        (w, _), fabric = _crew(grid12_pipeline)
        phase, ran = self._busy(0)
        for k in range(3):
            fabric.inboxes[0].put(wire.pack_done(1))
            assert w.step(phase) is True
            assert w.metrics.control_received == k + 1
        assert w.done_peers == {1} and ran == []
        assert w.step(phase) is False


class TestHandlers:
    def test_duplicate_block_is_a_typed_error(
        self, grid12_pipeline, seq_chol
    ):
        """Fail-stop, like a corrupt frame: a second frame for a held
        block raises the typed error naming the block and its sender,
        with nothing sent and nothing changed."""
        (w, _), fabric = _crew(grid12_pipeline)
        b, frame = _remote_block(w, seq_chol)
        assert w.receive(frame) is True
        assert b in w.have
        before, ledger = _state(w), _ledger(w)
        with pytest.raises(wire.WireError,
                           match=rf"block {b} .* again from rank 1"):
            w.receive(frame)
        assert w.metrics.messages_received == 1
        assert _ledger(w) == ledger and _same(before, _state(w))
        assert _sent(fabric, 1) == []

    def test_corrupt_frame_without_recovery_raises(
        self, grid12_pipeline, seq_chol
    ):
        """Fail-stop: the typed error, naming the presumed sender and
        block, with nothing sent and nothing changed."""
        (w, _), fabric = _crew(grid12_pipeline)
        b, frame = _remote_block(w, seq_chol)
        bad = bytearray(frame)
        bad[-1] ^= 0x10
        before = _state(w)
        with pytest.raises(wire.CorruptFrameError) as info:
            w.receive(bytes(bad))
        assert (info.value.src, info.value.block) == (1, b)
        assert _same(before, _state(w))
        assert _sent(fabric, 1) == []

    def test_steal_req_with_under_two_ready_tasks_is_denied(
        self, grid12_pipeline
    ):
        (w, _), fabric = _crew(grid12_pipeline, schedule="dynamic")
        while len(w.scheduler) > 1:
            w.scheduler.pop()
        assert w.receive(wire.pack_steal_req(1, 7)) is False
        (deny,) = _sent(fabric, 1)
        assert (deny.kind, deny.src, deny.block) == (wire.STEAL_DENY, 0, 7)
        assert w.metrics.steal_denies == 1
        assert w.metrics.steal_grants == 0
        assert len(w.scheduler) == 1


# One worker, shared by every hypothesis example (the properties below
# are about what a frame does *not* change).
_FUZZ: list = []


def _fuzz_worker(pipeline):
    if not _FUZZ:
        (w, _), fabric = _crew(pipeline)
        _FUZZ.extend((w, fabric))
    return _FUZZ


def _ledger(w):
    return dataclasses.asdict(w.metrics)


def _flipped(seq_chol, w, index, bit):
    """A valid BLOCK frame with one bit flipped where the CRC looks: the
    header prefix, the CRC field, or the payload."""
    _, frame = _remote_block(w, seq_chol)
    covered = [*range(wire.REF_REGION_START),
               *range(wire.HEADER_BYTES, len(frame))]
    buf = bytearray(frame)
    buf[covered[index % len(covered)]] ^= 1 << bit
    return bytes(buf)


def _rejects(w, fabric, frame):
    """``frame`` raises a typed wire error, sends nothing and changes
    nothing."""
    state, ledger = _state(w), _ledger(w)
    with pytest.raises(wire.WireError):
        w.receive(frame)
    assert _ledger(w) == ledger and _same(state, _state(w))
    assert _sent(fabric, 1) == []


class TestReceivePrologueFuzz:
    """Garbage never gets past the prologue: only a typed
    :class:`~repro.runtime.wire.WireError` escapes it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: b"RSB2" + b),
    ))
    def test_arbitrary_bytes(self, grid12_pipeline, data):
        _rejects(*_fuzz_worker(grid12_pipeline), data)

    @settings(max_examples=150, deadline=None)
    @given(index=st.integers(0, 10_000), bit=st.integers(0, 7))
    def test_bit_flipped_valid_frames(self, grid12_pipeline, seq_chol,
                                      index, bit):
        w, fabric = _fuzz_worker(grid12_pipeline)
        _rejects(w, fabric, _flipped(seq_chol, w, index, bit))


@pytest.fixture(scope="module")
def shm_rank(grid12_pipeline, seq_chol):
    """Rank 0 of a P = 2 job, set up over an arena whose store holds the
    sequential factor — rank 1's blocks final, as if rank 1 had published
    them — shared by every hypothesis example; its fabric; the arena."""
    if not shm_available():
        pytest.skip("multiprocessing.shared_memory unavailable")
    ctx, A = _context(grid12_pipeline, 2)
    arena = BlockArena.create(ctx.tg)
    try:
        arena.store[:] = seq_chol.store
        fabric = LinkFabric(2, queue)
        w = Worker(0, ctx, PoolJob(seq=0, pattern_id="t", values=A.data),
                   arena, fabric, queue.Queue())
        w._setup(True)
        yield w, fabric, arena
        del w
        gc.collect()  # the worker's views of the store, before the unmap
    finally:
        arena.destroy()


def _peer_block(w, pick):
    remote = np.flatnonzero(w.owners == 1)
    return int(remote[pick % remote.shape[0]])


def _rejects_in_place(w, fabric, arena, frame):
    """:func:`_rejects`, and the store's bytes are unchanged too."""
    store = arena.store.tobytes()
    _rejects(w, fabric, frame)
    assert arena.store.tobytes() == store


class TestDescriptorFuzz:
    """Once peers read each other's blocks in place, the descriptor check
    is the only guard against reading the wrong words: a descriptor that
    does not name a block exactly as the arena lays it out and holds it
    raises a typed :class:`~repro.runtime.wire.WireError`, runs no
    handler, sends nothing and changes no byte of the store."""

    @settings(max_examples=150, deadline=None)
    @given(pick=st.integers(0, 10_000), index=st.integers(0, 63),
           bit=st.integers(0, 7))
    def test_bit_flipped_descriptors(self, shm_rank, pick, index, bit):
        w, fabric, arena = shm_rank
        buf = bytearray(arena.pack_ref(1, _peer_block(w, pick)))
        buf[index] ^= 1 << bit
        _rejects_in_place(w, fabric, arena, bytes(buf))

    @settings(max_examples=150, deadline=None)
    @given(pick=st.integers(0, 10_000), other=st.integers(0, 10_000),
           fields=st.sets(st.integers(0, 3), min_size=1),
           far=st.booleans())
    def test_resigned_descriptors(self, shm_rank, pick, other, fields,
                                  far):
        """Valid frame CRC and payload CRC, but the offset / rows / cols /
        words (any of them) name another block or fall out of range."""
        w, fabric, arena = shm_rank
        b = _peer_block(w, pick)
        ref = list(arena.refs[b])
        if far:  # past the end of the store, or of any block's extents
            beyond = 8 * arena.size + 8 * other
            for f in fields:
                ref[f] = beyond if f == 0 else beyond // 8 + ref[f]
        else:
            b2 = other % len(arena.refs)
            for f in fields:
                ref[f] = arena.refs[b2][f]
        assume(tuple(ref) != arena.refs[b])
        off, rows, cols, words = ref
        _rejects_in_place(w, fabric, arena, wire.pack_block_ref(
            1, b, rows, cols, words, off, arena.checksum(b)))

    @settings(max_examples=100, deadline=None)
    @given(pick=st.integers(0, 10_000), delta=st.integers(1, 2**32 - 1))
    def test_stale_payload_crc(self, shm_rank, pick, delta):
        w, fabric, arena = shm_rank
        b = _peer_block(w, pick)
        off, rows, cols, words = arena.refs[b]
        _rejects_in_place(w, fabric, arena, wire.pack_block_ref(
            1, b, rows, cols, words, off, arena.checksum(b) ^ delta))

    def test_a_valid_descriptor_is_taken_in_place(self, shm_rank):
        """The control: the same rank takes an intact descriptor — no
        byte of the store moves, the block counts as received."""
        w, fabric, arena = shm_rank
        b = _peer_block(w, 0)
        store = arena.store.tobytes()
        assert w.receive(arena.pack_ref(1, b)) is True
        assert b in w.have and w.metrics.messages_received == 1
        assert arena.store.tobytes() == store


class TestWorkCostComesFromTheTaskGraph:
    """Spawns processes. ``op_fixed_cost`` is the work model's, so a
    one-shot run and a pooled job of the same task graph execute the same
    work units — and both equal the model's per-owner shares."""

    def test_one_shot_and_pooled_agree(self, grid12_pipeline):
        _, sf, _, bs, _, _ = grid12_pipeline
        wm = WorkModel(bs, op_fixed_cost=250)
        tg = TaskGraph(wm)
        ctx, A = _context((None, sf, None, bs, wm, tg), 2)
        owners = ctx.owners
        one = run_mp_fanout(bs, A, tg, owners, 2, mapping="DW/CY",
                            trace=True, transport="inline")
        with WorkerPool(nprocs=2) as pool:
            out = pool.run(PoolJob(
                seq=0, pattern_id="t", values=A.data, context=ctx,
                trace_capacity=1 << 16,
            ), timeout_s=120)
        assert out.ok, out.error
        _, _, metrics, trace = outcome_result(
            out, bs, tg, True, mapping="DW/CY",
        )
        shares = np.bincount(owners, weights=wm.work, minlength=2)
        for run_metrics, run_trace in ((one.metrics, one.trace),
                                       (metrics, trace)):
            assert [w.work_executed for w in run_metrics.workers] == [
                int(s) for s in shares
            ]
            validate_trace(run_trace, metrics=run_metrics, tg=tg,
                           owners=owners, strict=True)
