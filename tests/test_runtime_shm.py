"""The zero-copy shared-memory transport: descriptor wire format, the
arena's block table and integrity, the per-rank init maps, frame
coalescing, inline-vs-shm equivalence (bitwise factors, identical logical
accounting), the arena gather (a clean shm job ships no block home), chaos
parity, and arena cleanup."""

import os
import pickle

import numpy as np
import pytest

from repro.analysis.comm_volume import communication_volume
from repro.analysis.trace_replay import validate_trace
from repro.blocks import BlockStructure, WorkModel, make_partition
from repro.config import RunConfig
from repro.fanout import TaskGraph
from repro.numeric import BlockCholesky
from repro.numeric.solve import solve_with_factor
from repro.runtime import PatternContext, PoolJob, WorkerPool, wire
from repro.runtime.arena import (
    TRANSPORTS,
    BlockArena,
    resolve_transport,
    shm_available,
)
from repro.runtime.engine import (
    FanoutError,
    _assemble,
    outcome_result,
    plan_owners,
    run_mp_fanout,
)
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.runtime.links import Link
from repro.runtime.pool import JobOutcome
from repro.runtime.validation import validate_runtime
from repro.runtime.wire import CorruptFrameError, WireError
from tests.blockfact_oracle import oracle_grouped_cholesky
from tests.conftest import facade_job

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def _shm_segments() -> set:
    """Names of the POSIX shared-memory segments currently mapped."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# ----------------------------------------------------------------------
# Wire format: BLOCK_REF descriptors
# ----------------------------------------------------------------------
class TestBlockRefWire:
    def test_descriptor_is_header_only(self):
        frame = wire.pack_block_ref(2, 7, 5, 3, 15, 4096, 0xDEADBEEF)
        assert len(frame) == wire.HEADER_BYTES

    def test_roundtrip_fields(self):
        frame = wire.pack_block_ref(1, 9, 4, 4, 10, 800, 12345)
        msg = wire.unpack(frame)
        assert msg.kind == wire.BLOCK_REF
        assert (msg.src, msg.block) == (1, 9)
        assert (msg.rows, msg.cols) == (4, 4)
        assert msg.words == 10
        assert msg.offset == 800
        assert msg.payload_crc == 12345
        assert msg.payload is None

    def test_logical_bytes_ignore_frame_size(self):
        # A descriptor charges the logical payload, not its 64 bytes.
        msg = wire.unpack(wire.pack_block_ref(0, 1, 4, 4, 10, 0, 0))
        assert msg.nbytes == wire.HEADER_BYTES + 8 * 10

    @pytest.mark.parametrize("pos", [9, wire.REF_REGION_START,
                                     wire.REF_REGION_START + 8])
    def test_bit_flip_detected(self, pos):
        frame = bytearray(wire.pack_block_ref(0, 3, 2, 2, 3, 128, 77))
        frame[pos] ^= 0x04
        with pytest.raises(CorruptFrameError):
            wire.unpack(bytes(frame))

    def test_negative_offset_rejected(self):
        import struct
        import zlib

        prefix = struct.Struct("<4sBiiiiq").pack(
            b"RSB2", wire.BLOCK_REF, 0, 1, 2, 2, 3
        )
        extra = struct.Struct("<qI").pack(-8, 0)
        crc = zlib.crc32(extra, zlib.crc32(prefix))
        frame = prefix + struct.pack("<I", crc) + extra
        frame += b"\0" * (wire.HEADER_BYTES - len(frame))
        with pytest.raises(WireError):
            wire.unpack(frame)

    def test_data_kinds_cover_both_block_forms(self):
        assert wire.BLOCK in wire.DATA_KINDS
        assert wire.BLOCK_REF in wire.DATA_KINDS
        assert wire.BLOCK_REF not in wire.CONTROL_KINDS


# ----------------------------------------------------------------------
# The arena's block table and block integrity
# ----------------------------------------------------------------------
def _diag(tg):
    return np.asarray(tg.block_I) == np.asarray(tg.block_J)


@needs_shm
class TestArenaLayout:
    def test_blocks_tile_the_store(self, grid12_pipeline):
        """Every block is a contiguous run of the numeric plan's store — a
        diagonal block its whole square, a subdiagonal one its slab rows —
        and the runs tile the store: the layout ``BlockCholesky`` uses."""
        _, sf, _, bs, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            plan = bs.numeric_plan()
            assert arena.store.shape == (plan.size,)
            spans = sorted((off // 8, off // 8 + rows * cols)
                           for off, rows, cols, _ in arena.refs)
            assert spans[0][0] == 0 and spans[-1][1] == plan.size
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            chol = arena.factor
            for b, (off, rows, cols, _) in enumerate(arena.refs):
                I, J = int(tg.block_I[b]), int(tg.block_J[b])
                block = chol.diag[J] if I == J else chol.below[J][I]
                assert block.shape == (rows, cols)
                assert block.ctypes.data == arena.store.ctypes.data + off
        finally:
            arena.destroy()

    def test_logical_words_match_taskgraph(self, grid12_pipeline):
        """Descriptors advertise the logical payload (``tg.block_words``,
        the packed triangle of a diagonal block) and the logical extents."""
        _, _, part, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            _, rows, cols, words = map(np.array, zip(*arena.refs))
            np.testing.assert_array_equal(words, tg.block_words)
            np.testing.assert_array_equal(
                cols, np.asarray(part.widths)[tg.block_J]
            )
            diag = _diag(tg)
            np.testing.assert_array_equal(rows[diag], cols[diag])
        finally:
            arena.destroy()


@needs_shm
class TestBlockArena:
    def test_write_view_resolve_roundtrip(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            b = int(np.flatnonzero(~_diag(tg))[0])
            rng = np.random.default_rng(0)
            _, rows, cols, _ = arena.refs[b]
            arr = rng.random((rows, cols))
            arena.write(b, arr)
            view = arena.view(b)
            np.testing.assert_array_equal(view, arr)
            assert not view.flags.writeable
            msg = wire.unpack(arena.pack_ref(3, b))
            resolved = arena.resolve(msg)
            assert resolved.kind == wire.BLOCK
            np.testing.assert_array_equal(resolved.payload, arr)
            assert resolved.nbytes == wire.HEADER_BYTES + 8 * int(
                tg.block_words[b]
            )
        finally:
            arena.destroy()

    def test_diag_roundtrip_matches_inline_unpack(self, grid12_pipeline):
        """A diagonal block lies in the store as its C-contiguous square,
        which is what the inline transport unpacks a packed triangle into:
        a factored block (zero upper triangle) reads the same bytes on
        both transports."""
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            b = int(np.flatnonzero(_diag(tg))[0])
            w = arena.refs[b][2]
            rng = np.random.default_rng(7)
            # bfac's L in whatever order; the store holds it row-major.
            arr = np.asfortranarray(np.tril(rng.random((w, w))))
            arena.write(b, arr)
            got = arena.resolve(wire.unpack(arena.pack_ref(1, b))).payload
            inline = wire.unpack(
                wire.pack_block(1, b, int(tg.block_I[b]),
                                int(tg.block_J[b]), arr)
            ).payload
            assert got.flags.c_contiguous
            assert got.tobytes() == inline.tobytes()
        finally:
            arena.destroy()

    def test_stale_slot_crc_rejected(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            b = 0
            _, rows, cols, _ = arena.refs[b]
            arena.write(b, np.ones((rows, cols)))
            msg = wire.unpack(arena.pack_ref(0, b))
            # Block mutated after the descriptor was built: CRC must fail.
            arena.write(b, np.zeros((rows, cols)))
            with pytest.raises(CorruptFrameError):
                arena.resolve(msg)
        finally:
            arena.destroy()

    def test_inline_frame_matches_inline_transport(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            b = int(np.flatnonzero(_diag(tg))[0])
            w = arena.refs[b][2]
            rng = np.random.default_rng(1)
            arr = np.tril(rng.random((w, w)))
            arena.write(b, arr)
            coords = int(tg.block_I[b]), int(tg.block_J[b])
            inline = wire.pack_block(2, b, *coords, arena.view(b))
            assert inline == wire.pack_block(2, b, *coords, arr)
        finally:
            arena.destroy()

    def test_destroy_is_idempotent_and_unlinks(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        before = _shm_segments()
        arena = BlockArena.create(tg)
        assert _shm_segments() - before  # segment exists while live
        arena.destroy()
        arena.destroy()
        assert _shm_segments() == before


# ----------------------------------------------------------------------
# Frame coalescing
# ----------------------------------------------------------------------
class _ListQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestCoalescing:
    def test_batched_frames_ship_as_one_put(self):
        q = _ListQueue()
        link = Link(0, 1, q)
        link.coalesce = True
        frames = [wire.pack_block_ref(0, b, 2, 2, 3, b * 32, 0)
                  for b in range(3)]
        for f in frames:
            link.send(f, nbytes=wire.HEADER_BYTES + 8 * 3)
        assert q.items == []  # nothing ships until a flush
        link.flush_pending()
        assert len(q.items) == 1 and q.items[0] == frames
        assert link.messages == 3
        assert link.bytes == 3 * (wire.HEADER_BYTES + 8 * 3)  # logical
        assert link.wire_bytes == 3 * wire.HEADER_BYTES       # transported

    def test_lone_frame_ships_bare(self):
        q = _ListQueue()
        link = Link(0, 1, q)
        link.coalesce = True
        frame = wire.pack_block_ref(0, 1, 2, 2, 3, 0, 0)
        link.send(frame)
        link.flush_pending()
        assert q.items == [frame]  # not wrapped in a list

    def test_control_frame_flushes_pending_first(self):
        q = _ListQueue()
        link = Link(0, 1, q)
        link.coalesce = True
        data = wire.pack_block_ref(0, 1, 2, 2, 3, 0, 0)
        done = wire.pack_done(0)
        link.send(data)
        link.send_control(done)
        # Ordering preserved: the data batch lands before the control frame.
        assert q.items == [data, done]

    def test_auto_flush_at_cap(self):
        from repro.runtime.links import COALESCE_MAX

        q = _ListQueue()
        link = Link(0, 1, q)
        link.coalesce = True
        for b in range(COALESCE_MAX + 1):
            link.send(wire.pack_block_ref(0, b, 2, 2, 3, 0, 0))
        assert len(q.items) == 1 and len(q.items[0]) == COALESCE_MAX
        link.flush_pending()
        assert len(q.items) == 2

    def test_uncoalesced_link_ships_immediately(self):
        q = _ListQueue()
        link = Link(0, 1, q)
        frame = wire.pack_block_ref(0, 1, 2, 2, 3, 0, 0)
        link.send(frame)
        assert q.items == [frame]


# ----------------------------------------------------------------------
# Transport resolution
# ----------------------------------------------------------------------
class TestTransportResolution:
    def test_inline_always_honored(self):
        assert resolve_transport("inline", 8) == "inline"

    def test_auto_single_worker_stays_inline(self):
        assert resolve_transport("auto", 1) == "inline"

    @needs_shm
    def test_auto_multi_worker_picks_shm(self):
        assert resolve_transport("auto", 2) == "shm"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon", 2)
        assert set(TRANSPORTS) == {"auto", "shm", "inline"}


# ----------------------------------------------------------------------
# End-to-end equivalence
# ----------------------------------------------------------------------
@needs_shm
class TestTransportEquivalence:
    def test_shm_matches_inline_bit_for_bit(self, grid12_pipeline):
        """Same factors (bitwise), same logical accounting (exactly the
        predictor's numbers), header-only transported bytes, and exact
        trace reconciliation — on both transports."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "DW/CY")
        predicted = communication_volume(tg, owners)
        results = {}
        for transport in ("inline", "shm"):
            res = run_mp_fanout(
                bs, sf.A, tg, owners, 2, mapping=name, trace=True,
                transport=transport,
            )
            met = res.metrics
            assert met.transport == transport
            assert res.meta["transport"] == transport
            assert met.messages_total == predicted.messages
            assert met.bytes_total == predicted.bytes
            validate_runtime(bs, sf.A, tg, result=res, strict=True)
            validate_trace(res.trace, met, strict=True)
            results[transport] = res
        inline, shm = results["inline"], results["shm"]
        # Bitwise-identical factors (deterministic BMOD ordering).
        Li, Ls = inline.to_csc(), shm.to_csc()
        assert (Li != Ls).nnz == 0
        assert np.array_equal(Li.data, Ls.data)
        # Transported bytes: full payloads inline, 64/frame descriptors shm.
        assert inline.metrics.wire_bytes_total == inline.metrics.bytes_total
        assert shm.metrics.wire_bytes_total == 64 * shm.metrics.messages_total
        assert shm.metrics.wire_bytes_total < shm.metrics.bytes_total

    def test_equivalence_on_irregular_problem(self, random_spd_pipeline):
        _, sf, _, bs, wm, tg = random_spd_pipeline
        owners, name = plan_owners(wm, tg, 3, "cyclic")
        factors = []
        for transport in ("inline", "shm"):
            res = run_mp_fanout(
                bs, sf.A, tg, owners, 3, mapping=name, transport=transport
            )
            validate_runtime(bs, sf.A, tg, result=res, strict=True)
            factors.append(res.to_csc())
        assert np.array_equal(factors[0].data, factors[1].data)

    def test_runs_are_reproducible(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "cyclic")
        data = [
            run_mp_fanout(bs, sf.A, tg, owners, 2, mapping=name,
                          transport=t).to_csc().data
            for t in ("shm", "shm", "inline")
        ]
        assert np.array_equal(data[0], data[1])
        assert np.array_equal(data[0], data[2])


# ----------------------------------------------------------------------
# The arena is the gather
# ----------------------------------------------------------------------
def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


@pytest.fixture(scope="module")
def gather_problems(grid12_pipeline, random_spd_pipeline):
    """grid12 and random_spd under the uniform and the supernodal block
    policy: ``(structure, work model, task graph, A, sequential L)``."""
    problems = {}
    for name, pipeline in (("grid12", grid12_pipeline),
                           ("random_spd", random_spd_pipeline)):
        _, sf, _, bs, wm, tg = pipeline
        A = sf.A.tocsc()
        problems[name, "uniform"] = (bs, wm, tg, A)
        sn = BlockStructure(make_partition(
            sf, "supernodal", block_size=4, min_width=2, max_width=8
        ))
        wm_sn = WorkModel(sn)
        problems[name, "supernodal"] = (sn, wm_sn, TaskGraph(wm_sn), A)
    return {
        key: (bs, wm, tg, A, BlockCholesky(bs, A).factor().to_csc())
        for key, (bs, wm, tg, A) in problems.items()
    }


def _context(bs, tg, owners, A, pattern_id, arena=None, **config):
    return PatternContext(
        pattern_id=pattern_id, structure=bs, tg=tg, owners=owners,
        indptr=A.indptr, indices=A.indices, shape=tuple(A.shape),
        arena_name=None if arena is None else arena.name,
        config=RunConfig(**config),
    )


def _run(pool, seq, ctx, values, ship=True, **fields):
    return pool.run(PoolJob(
        seq=seq, pattern_id=ctx.pattern_id, values=values,
        context=ctx if ship else None, **fields,
    ), timeout_s=120)


@pytest.fixture()
def arena_job(grid12_pipeline):
    """One clean P=2 shm job on grid12, its arena still alive: the
    results as the ranks reported them, ready to be tampered with."""
    _, sf, _, bs, wm, tg = grid12_pipeline
    owners, _ = plan_owners(wm, tg, 2, "DW/CY")
    A = sf.A.tocsc()
    arena = BlockArena.create(tg)
    try:
        with WorkerPool(nprocs=2) as pool:
            out = _run(pool, 0, _context(bs, tg, owners, A, "g", arena),
                       A.data)
        assert out.ok, out.error
        yield bs, tg, owners, A, arena, out.results
    finally:
        arena.destroy()


@needs_shm
class TestArenaGather:
    @pytest.mark.parametrize("nprocs", [2, 3, 4])
    def test_arena_equals_frames_equals_sequential(
        self, gather_problems, nprocs
    ):
        """Bitwise on (indptr, indices, data): the factor copied out of
        the arena, the one installed from gather frames, the sequential
        one — both problems, both block policies, both schedules. At P = 4
        (a 2 x 2 grid) a rank's panel updates stack its share of the rows,
        so the third is the grouped oracle. A clean shm result carries no
        frame, an inline one every owned block."""
        seq = 0
        with WorkerPool(nprocs=nprocs) as pool:
            for (name, policy), (bs, wm, tg, A, ref) in (
                gather_problems.items()
            ):
                owners, _ = plan_owners(wm, tg, nprocs, "DW/CY")
                if nprocs == 4:
                    ref = oracle_grouped_cholesky(bs, A, owners).to_csc()
                for schedule in ("static", "dynamic"):
                    cell = f"{name}-{policy}-{schedule}"
                    arena = BlockArena.create(tg)
                    try:
                        for transport in (None, arena):
                            ctx = _context(
                                bs, tg, owners, A, f"{cell}-{seq}",
                                transport, schedule=schedule, nprocs=nprocs,
                            )
                            out = _run(pool, seq, ctx, A.data)
                            seq += 1
                            assert out.ok, (cell, out.error)
                            factor, _, metrics, _ = outcome_result(
                                out, bs, tg, True, owners=owners,
                                arena=transport, config=ctx.config,
                            )
                            assert _bitwise(factor.to_csc(), ref), cell
                            res = out.results
                            gather = metrics.extra["gather"]
                            assert gather["blocks"] == tg.nblocks
                            if transport is None:
                                assert gather["mode"] == "frames"
                                assert metrics.transport == "inline"
                                assert all(r.held is None
                                           for r in res.values())
                                assert sum(len(r.frames)
                                           for r in res.values()
                                           ) == tg.nblocks
                            else:
                                assert gather["mode"] == "arena"
                                assert metrics.transport == "shm"
                                assert not any(r.frames
                                               for r in res.values())
                                for rank, r in res.items():
                                    assert np.array_equal(
                                        r.held[0],
                                        np.flatnonzero(owners == rank),
                                    )
                    finally:
                        arena.destroy()

    def test_diagonal_blocks_come_out_as_wire_unpack_builds_them(
        self, arena_job
    ):
        bs, tg, owners, A, arena, results = arena_job
        factor, _ = _assemble(bs, tg, results, owners, arena)
        for d in factor.diag:
            assert d.flags.c_contiguous
            assert not np.triu(d, 1).any()
        assert factor._factored.all()

    def test_an_aborted_job_ships_no_blocks_home(self, grid12_pipeline):
        """A soft-crashed shm job fails whole: no rank reports a block,
        as a frame or as a held slot — the job re-runs from scratch."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        A = sf.A.tocsc()
        arena = BlockArena.create(tg)
        try:
            with WorkerPool(nprocs=2) as pool:
                out = _run(
                    pool, 0, _context(bs, tg, owners, A, "g", arena), A.data,
                    fault_plan=FaultPlan(crash=(CrashSpec(1, 6),)),
                )
        finally:
            arena.destroy()
        assert not out.ok and len(out.results) == 2
        assert all(r.held is None and r.frames == []
                   for r in out.results.values())

    def test_one_block_short_is_a_typed_error(self, arena_job):
        bs, tg, owners, A, arena, results = arena_job
        blocks, crcs = results[1].held
        lost = int(blocks[-1])
        results[1].held = (blocks[:-1], crcs[:-1])
        I, J = int(tg.block_I[lost]), int(tg.block_J[lost])
        with pytest.raises(FanoutError) as err:
            outcome_result(
                JobOutcome(seq=0, results=results), bs, tg, True,
                owners=owners, arena=arena,
            )
        assert str(err.value) == (
            f"factor gather: 1/{tg.nblocks} blocks did not arrive exactly "
            f"once; block {lost} ({I},{J}), owned by rank 1, came from "
            "ranks []"
        )
        assert err.value.results is results

    def test_one_block_twice_is_a_typed_error(self, arena_job):
        bs, tg, owners, A, arena, results = arena_job
        blocks, crcs = results[1].held
        twice = int(results[0].held[0][0])
        results[1].held = (
            np.append(blocks, np.int32(twice)), np.append(crcs, crcs[-1])
        )
        with pytest.raises(
            FanoutError,
            match=rf"block {twice} .*owned by rank 0, came from ranks "
                  r"\[0, 1\]",
        ):
            _assemble(bs, tg, results, owners, arena)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_slot_byte_flipped_after_the_report_is_a_typed_error(
        self, arena_job, diagonal
    ):
        """What a straggler of an aborted job writing the reused store
        looks like: a final block no longer holds the bytes its rank
        published."""
        bs, tg, owners, A, arena, results = arena_job
        b = int(np.flatnonzero((owners == 1) & (_diag(tg) == diagonal))[3])
        arena.shm.buf[arena.refs[b][0] + 3] ^= 0x10
        with pytest.raises(FanoutError) as err:
            _assemble(bs, tg, results, owners, arena)
        assert str(err.value) == (
            f"factor gather: block {b} ({tg.block_I[b]},{tg.block_J[b]}), "
            "owned by rank 1, does not hold the bytes rank 1 published "
            "(CRC mismatch)"
        )
        assert err.value.results is results

    def test_factor_is_private_memory(self, grid12_pipeline):
        """Two back-to-back jobs on one arena: the first job's factor and
        ``L`` are unchanged after the second overwrites every slot, the
        arena unmaps with both results alive, and a solve on the
        arena-assembled factor is bitwise the sequential one."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        A1 = sf.A.tocsc()
        A2 = A1.copy()
        A2.setdiag(A2.diagonal() + 1.5)
        ref1, ref2 = (BlockCholesky(bs, A).factor() for A in (A1, A2))
        arena = BlockArena.create(tg)
        try:
            with WorkerPool(nprocs=2) as pool:
                ctx = _context(bs, tg, owners, A1, "g", arena)
                out = _run(pool, 0, ctx, A1.data)
                first, _, _, _ = outcome_result(
                    out, bs, tg, True, owners=owners, arena=arena
                )
                L1 = first.to_csc()
                out = _run(pool, 1, ctx, A2.data, ship=False)
                second, _, _, _ = outcome_result(
                    out, bs, tg, True, owners=owners, arena=arena
                )
        finally:
            arena.destroy()
        assert arena.shm.buf is None  # unmapped: nothing aliased it
        assert _bitwise(L1, ref1.to_csc())
        assert _bitwise(first.to_csc(), ref1.to_csc())
        assert _bitwise(second.to_csc(), ref2.to_csc())
        rhs = np.random.default_rng(3).standard_normal((A1.shape[0], 2))
        assert np.array_equal(
            solve_with_factor(first, rhs), solve_with_factor(ref1, rhs)
        )

    def test_compiled_map_never_pickles(self, grid12_pipeline):
        """A rank's init map is compiled once per resident context and
        never travels with it."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        ctx = _context(bs, tg, owners, sf.A.tocsc(), "g")
        before = pickle.dumps(bs), pickle.dumps(ctx)
        runs, src, at = ctx.init_map(1)
        assert ctx.init_map(1)[0] is runs
        assert src.shape == at.shape
        assert (pickle.dumps(bs), pickle.dumps(ctx)) == before


# ----------------------------------------------------------------------
# Every word of the shared store has exactly one initializer
# ----------------------------------------------------------------------
class TestInitMaps:
    @pytest.mark.parametrize("nprocs", [2, 3, 4, 6])
    def test_init_maps_partition_the_store(self, gather_problems, nprocs):
        """The ranks' init maps are disjoint and cover ``range(plan.size)``,
        and each rank's entries of ``A`` are exactly the ones that land in
        its words."""
        for (name, policy), (bs, wm, tg, A, _) in gather_problems.items():
            owners, _ = plan_owners(wm, tg, nprocs, "DW/CY")
            ctx = _context(bs, tg, owners, A, "g")
            plan = bs.numeric_plan()
            maps = [ctx.init_map(r) for r in range(nprocs)]
            words = [
                np.concatenate([np.arange(lo, hi) for lo, hi, _ in runs])
                for runs, _, _ in maps
            ]
            assert np.array_equal(np.sort(np.concatenate(words)),
                                  np.arange(plan.size)), (name, policy)
            src, dest = plan.scatter_map(A.indptr, A.indices)
            assert sum(s.shape[0] for _, s, _ in maps) == src.shape[0]
            for w, (runs, s, at) in zip(words, maps):
                assert [off for _, _, off in runs] == np.cumsum(
                    [0] + [hi - lo for lo, hi, _ in runs[:-1]]).tolist()
                assert np.array_equal(w[at], dest[np.isin(dest, w)])
                assert np.array_equal(s, src[np.isin(dest, w)])

    @needs_shm
    @pytest.mark.parametrize("nprocs", [2, 4, 6])
    def test_a_store_full_of_nan_factors_clean(self, gather_problems,
                                               nprocs):
        """Nothing a job reads is left over from before it: a store filled
        with NaN before dispatch yields a finite factor, bitwise the
        sequential one on a 1 x 2 grid and the grouped oracle's on 2 x 2
        and 2 x 3 — more ranks than cores, two owners writing one column's
        slab in place."""
        bs, wm, tg, A, ref = gather_problems["grid12", "uniform"]
        owners, _ = plan_owners(wm, tg, nprocs, "DW/CY")
        if nprocs > 2:  # oracle_grouped_factor, in a BlockCholesky
            ref = oracle_grouped_cholesky(bs, A, owners).to_csc()
        arena = BlockArena.create(tg)
        try:
            arena.store[:] = np.nan
            with WorkerPool(nprocs=nprocs) as pool:
                ctx = _context(bs, tg, owners, A, "g", arena)
                out = _run(pool, 0, ctx, A.data)
                assert out.ok, out.error
                factor, _, _, _ = outcome_result(
                    out, bs, tg, True, owners=owners, arena=arena,
                )
        finally:
            arena.destroy()
        assert _bitwise(factor.to_csc(), ref)  # to_csc: finite, or raises


# ----------------------------------------------------------------------
# Chaos over shm
# ----------------------------------------------------------------------
@needs_shm
class TestChaosOverShm:
    def test_duplicate_fingerprints_match_inline(self, grid12_pipeline):
        """A repeated descriptor fails its attempt with the same typed
        error as a repeated inline frame; on both transports the re-run is
        an ordinary run, and the two factors are the same bits."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(duplicate=1.0)
        factors = {}
        for transport in ("inline", "shm"):
            res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                             transport=transport, stall_timeout_s=15.0)
            report = res.failure_report
            assert (report.outcome, report.restarts) == ("recovered", 1)
            assert "arrived again from rank" in report.attempts[0].error
            assert res.metrics.transport == transport
            assert validate_runtime(bs, sf.A, tg, result=res).ok
            factors[transport] = res.to_csc()
        assert _bitwise(factors["inline"], factors["shm"])

    def test_corrupt_descriptors_abort_and_rerun(self, grid12_pipeline):
        """Bit-flipped descriptor slot metadata must trip the frame CRC and
        fail the attempt with the same typed error as inline corruption;
        the re-run is an ordinary run."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=5, corrupt=0.4)
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         transport="shm", stall_timeout_s=15.0)
        report = res.failure_report
        assert (report.outcome, report.restarts) == ("recovered", 1)
        assert "CorruptFrameError" in report.attempts[0].error
        assert res.metrics.transport == "shm"
        rep = validate_runtime(bs, sf.A, tg, result=res, strict=True)
        assert rep.ok

    def test_mixed_chaos_recovers_on_shm(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=7, drop=0.15, corrupt=0.2, duplicate=0.15)
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         transport="shm", stall_timeout_s=15.0)
        assert res.failure_report.ok
        rep = validate_runtime(bs, sf.A, tg, result=res, strict=True)
        assert rep.ok


# ----------------------------------------------------------------------
# Arena lifecycle: no leaked segments
# ----------------------------------------------------------------------
@needs_shm
class TestArenaCleanup:
    def test_clean_run_leaves_no_segment(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, name = plan_owners(wm, tg, 2, "cyclic")
        before = _shm_segments()
        run_mp_fanout(bs, sf.A, tg, owners, 2, mapping=name, transport="shm")
        assert _shm_segments() == before

    def test_hard_crash_recovery_leaves_no_segment(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(
            seed=1, crash=(CrashSpec(rank=1, after_tasks=3, hard=True),)
        )
        before = _shm_segments()
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         transport="shm", stall_timeout_s=15.0)
        assert _shm_segments() == before
        assert res.failure_report.ok or res.failure_report.degraded
        L = res.to_csc()
        assert float(abs(L @ L.T - sf.A).max()) < 1e-8

    def test_soft_crash_restart_over_shm(self, grid12_pipeline):
        """The restarted attempt writes every block it owns into its slot
        again, so its gather is a read of the arena — covered, CRC-clean
        and bitwise."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(
            seed=2, crash=(CrashSpec(rank=1, after_tasks=4, hard=False),)
        )
        before = _shm_segments()
        res = facade_job(sf.A, nprocs=2, mapping="DW/CY", fault_plan=plan,
                         transport="shm", stall_timeout_s=15.0)
        assert _shm_segments() == before
        report = res.failure_report
        assert report.outcome == "recovered"
        assert report.restarts >= 1
        gather = res.metrics.extra["gather"]
        assert (gather["mode"], gather["blocks"]) == ("arena", tg.nblocks)
        assert _bitwise(
            res.to_csc(), BlockCholesky(bs, sf.A).factor().to_csc()
        )


# ----------------------------------------------------------------------
# Solver integration: plan cache + transport plumbing
# ----------------------------------------------------------------------
class TestSolverIntegration:
    def test_plan_cache_and_repeat_factor(self, grid12_pipeline):
        """The instance's plan is its cache: a repeat factor runs on the
        same plan, crew and arena, on the same transport, bit for bit."""
        from repro.solver import SparseCholesky

        problem, _, _, _, _, _ = grid12_pipeline
        with SparseCholesky(
            problem.A, ordering="nd", block_size=8, backend="mp", nprocs=2,
            transport="auto",
        ) as chol:
            L1 = chol.factor().L.copy()
            crew, arena = chol._crew, chol._crew[0].arena
            t1 = chol.runtime_metrics.transport
            L2 = chol.factor().L
            assert chol._crew is crew  # second factor reused the plan
            assert crew[0].arena is arena and crew[1].generation == 1
            assert chol.runtime_metrics.transport == t1
            assert np.array_equal(L1.data, L2.data)

    def test_explicit_inline_transport(self, grid12_pipeline):
        from repro.solver import SparseCholesky

        problem, _, _, _, _, _ = grid12_pipeline
        chol = SparseCholesky(
            problem.A, ordering="nd", block_size=8, backend="mp", nprocs=2,
            transport="inline",
        ).factor()
        met = chol.runtime_metrics
        assert met.transport == "inline"
        assert met.wire_bytes_total == met.bytes_total
