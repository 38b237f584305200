"""The zero-copy shared-memory transport: descriptor wire format, arena
layout/integrity, frame coalescing, inline-vs-shm equivalence (bitwise
factors, identical logical accounting), chaos parity, and arena cleanup."""

import os

import numpy as np
import pytest

from repro.analysis.comm_volume import communication_volume
from repro.analysis.trace_replay import validate_trace
from repro.runtime import wire
from repro.runtime.arena import (
    SLOT_ALIGN,
    TRANSPORTS,
    ArenaLayout,
    BlockArena,
    resolve_transport,
    shm_available,
)
from repro.runtime.engine import plan_owners, run_mp_fanout
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.runtime.links import Link
from repro.runtime.recovery import run_with_recovery
from repro.runtime.validation import validate_runtime
from repro.runtime.wire import CorruptFrameError, WireError

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
# Arena layout and slot integrity
# ----------------------------------------------------------------------
class TestArenaLayout:
    def test_slots_disjoint_aligned_and_packed(self, grid12_pipeline):
        _, _, part, _, _, tg = grid12_pipeline
        lay = ArenaLayout(tg)
        assert lay.nblocks == tg.nblocks
        widths = np.asarray(part.widths)
        for b in range(lay.nblocks):
            assert lay.cols[b] == widths[tg.block_J[b]]
            if lay.diag[b]:
                assert lay.rows[b] == lay.cols[b]
            # Slots store exactly the logical words (packed triangle for
            # diagonal blocks), start cache-line aligned, and never overlap.
            assert lay.offsets[b] % SLOT_ALIGN == 0
            span = lay.offsets[b + 1] - lay.offsets[b]
            assert span >= lay.logical_words[b] * 8
            assert span - lay.logical_words[b] * 8 < SLOT_ALIGN
        assert lay.total_bytes == int(lay.offsets[-1])
        assert lay.payload_bytes == int(lay.logical_words.sum()) * 8
        assert lay.padding_bytes == lay.total_bytes - lay.payload_bytes
        assert 0 <= lay.padding_bytes < lay.nblocks * SLOT_ALIGN

    def test_logical_words_match_taskgraph(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        lay = ArenaLayout(tg)
        np.testing.assert_array_equal(lay.logical_words, tg.block_words)


@needs_shm
class TestBlockArena:
    def test_write_view_resolve_roundtrip(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            b = int(np.flatnonzero(~ArenaLayout(tg).diag)[0])
            rng = np.random.default_rng(0)
            lay = arena.layout
            arr = rng.random((int(lay.rows[b]), int(lay.cols[b])))
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
        """Diagonal slots store the packed triangle but consumers get the
        same C-contiguous zero-upper square the inline transport builds."""
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            lay = arena.layout
            b = int(np.flatnonzero(lay.diag)[0])
            w = int(lay.cols[b])
            rng = np.random.default_rng(7)
            # bfac hands the arena an F-contiguous square; storage packs it.
            arr = np.asfortranarray(np.tril(rng.random((w, w))))
            arena.write(b, arr)
            got = arena.resolve(wire.unpack(arena.pack_ref(1, b))).payload
            inline = wire.unpack(
                wire.pack_block(1, b, int(lay.block_I[b]),
                                int(lay.block_J[b]), arr)
            ).payload
            assert got.flags.c_contiguous
            assert got.tobytes() == inline.tobytes()
            np.testing.assert_array_equal(arena.read(b), inline)
        finally:
            arena.destroy()

    def test_stale_slot_crc_rejected(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            b = 0
            lay = arena.layout
            arena.write(b, np.ones((int(lay.rows[b]), int(lay.cols[b]))))
            msg = wire.unpack(arena.pack_ref(0, b))
            # Slot mutated after the descriptor was built: CRC must fail.
            arena.write(b, np.zeros((int(lay.rows[b]), int(lay.cols[b]))))
            with pytest.raises(CorruptFrameError):
                arena.resolve(msg)
        finally:
            arena.destroy()

    def test_inline_frame_matches_inline_transport(self, grid12_pipeline):
        _, _, _, _, _, tg = grid12_pipeline
        arena = BlockArena.create(tg)
        try:
            lay = arena.layout
            b = int(np.flatnonzero(lay.diag)[0])
            w = int(lay.cols[b])
            rng = np.random.default_rng(1)
            arr = np.tril(rng.random((w, w)))
            arena.write(b, arr)
            coords = int(lay.block_I[b]), int(lay.block_J[b])
            inline = wire.pack_block(2, b, *coords, arena.read(b))
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
# Chaos over shm
# ----------------------------------------------------------------------
@needs_shm
class TestChaosOverShm:
    def test_duplicate_fingerprints_match_inline(self, grid12_pipeline):
        """Duplicate injection is timing-independent: both transports must
        inject and suppress exactly the same duplicates."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=3, duplicate=0.3)
        stats = {}
        for transport in ("inline", "shm"):
            res = run_with_recovery(
                bs, sf.A, tg, nprocs=2, mapping="DW/CY", fault_plan=plan,
                transport=transport, stall_timeout_s=15.0,
            )
            assert res.failure_report.outcome == "clean"
            rep = validate_runtime(
                bs, sf.A, tg, result=res, strict=True, faulty=True
            )
            assert rep.ok
            stats[transport] = (
                res.metrics.faults_injected_total,
                res.metrics.duplicates_total,
            )
        assert stats["inline"] == stats["shm"]
        assert stats["shm"][0].get("duplicate", 0) > 0

    def test_corrupt_descriptors_nack_and_recover(self, grid12_pipeline):
        """Bit-flipped descriptor slot metadata must trip the frame CRC and
        drive the same NACK/retransmit machinery as inline corruption."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=5, corrupt=0.4)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY", fault_plan=plan,
            transport="shm", stall_timeout_s=15.0,
        )
        met = res.metrics
        assert met.faults_injected_total.get("corrupt", 0) > 0
        assert met.frames_rejected_total > 0
        assert met.retransmits_total > 0
        rep = validate_runtime(
            bs, sf.A, tg, result=res, strict=True, faulty=True
        )
        assert rep.ok

    def test_mixed_chaos_recovers_on_shm(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=7, drop=0.15, corrupt=0.2, duplicate=0.15)
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY", fault_plan=plan,
            transport="shm", stall_timeout_s=15.0,
            renegotiate_base_s=0.05, renegotiate_cap_s=0.5,
        )
        assert res.failure_report.ok
        rep = validate_runtime(
            bs, sf.A, tg, result=res, strict=True, faulty=True
        )
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
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY", fault_plan=plan,
            transport="shm", stall_timeout_s=15.0, dead_grace_s=3.0,
        )
        assert _shm_segments() == before
        assert res.failure_report.ok or res.failure_report.degraded
        L = res.to_csc()
        assert float(abs(L @ L.T - sf.A).max()) < 1e-8

    def test_soft_crash_checkpoint_restart_over_shm(self, grid12_pipeline):
        """Salvaged BLOCK_REF frames are inlined before the arena dies, so
        the restarted attempt can preload them (and serve NACKs for them
        from its own fresh arena)."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(
            seed=2, crash=(CrashSpec(rank=1, after_tasks=4, hard=False),)
        )
        before = _shm_segments()
        res = run_with_recovery(
            bs, sf.A, tg, nprocs=2, mapping="DW/CY", fault_plan=plan,
            transport="shm", stall_timeout_s=15.0, dead_grace_s=3.0,
        )
        assert _shm_segments() == before
        assert res.failure_report.restarts >= 1
        assert res.failure_report.ok or res.failure_report.degraded
        L = res.to_csc()
        assert float(abs(L @ L.T - sf.A).max()) < 1e-8


# ----------------------------------------------------------------------
# Solver integration: plan cache + transport plumbing
# ----------------------------------------------------------------------
class TestSolverIntegration:
    def test_plan_cache_and_repeat_factor(self, grid12_pipeline):
        from repro.solver import SparseCholesky

        problem, _, _, _, _, _ = grid12_pipeline
        chol = SparseCholesky(
            problem.A, ordering="nd", block_size=8, backend="mp", nprocs=2,
            transport="auto",
        )
        L1 = chol.factor().L.copy()
        assert len(chol._plan_cache) == 1
        t1 = chol.runtime_metrics.transport
        L2 = chol.factor().L
        assert len(chol._plan_cache) == 1  # second factor reused the plan
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
