"""The chaos layer in isolation: wire integrity (CRC32, typed errors,
control frames), fault-plan semantics (determinism, serialization,
scenarios, restart filtering), and the fault-injecting link."""

import numpy as np
import pytest

from repro.runtime import wire
from repro.runtime.faults import (
    FAULT_CLASSES,
    MESSAGE_FAULTS,
    FaultInjector,
    FaultPlan,
    FaultyLink,
)
from repro.runtime.links import Link
from repro.runtime.wire import CorruptFrameError, WireError


class _ListQueue:
    """A queue stand-in capturing every put frame in order."""

    def __init__(self):
        self.items = []

    def put(self, frame):
        self.items.append(frame)


def _block_frame(src=0, block=5, I=2, J=1, shape=(3, 3)):
    rng = np.random.default_rng(0)
    return wire.pack_block(src, block, I, J, rng.random(shape))


# ----------------------------------------------------------------------
# Wire integrity
# ----------------------------------------------------------------------
class TestWireIntegrity:
    def test_block_roundtrip_survives_crc(self):
        arr = np.arange(12, dtype=float).reshape(3, 4)
        msg = wire.unpack(wire.pack_block(2, 7, 5, 1, arr))
        assert (msg.kind, msg.src, msg.block) == (wire.BLOCK, 2, 7)
        np.testing.assert_array_equal(msg.payload, arr)

    def test_diagonal_roundtrip_packed_triangle(self):
        a = np.tril(np.arange(1.0, 17.0).reshape(4, 4))
        frame = wire.pack_block(0, 3, 2, 2, a)
        # Triangle storage: 10 words, not 16.
        assert len(frame) == wire.HEADER_BYTES + 8 * 10
        np.testing.assert_array_equal(wire.unpack(frame).payload, a)

    @pytest.mark.parametrize("offset_from", ["header", "payload"])
    def test_bit_flip_detected(self, offset_from):
        frame = bytearray(_block_frame())
        pos = 9 if offset_from == "header" else wire.HEADER_BYTES + 3
        frame[pos] ^= 0x10
        with pytest.raises(CorruptFrameError):
            wire.unpack(bytes(frame))

    def test_corrupt_error_carries_addressing(self):
        frame = bytearray(_block_frame(src=1, block=5))
        frame[-1] ^= 1
        with pytest.raises(CorruptFrameError) as info:
            wire.unpack(bytes(frame))
        assert info.value.src == 1
        assert info.value.block == 5

    @pytest.mark.parametrize("mutation", ["truncate", "magic", "nwords"])
    def test_malformed_frames_raise_typed_error(self, mutation):
        frame = bytearray(_block_frame())
        if mutation == "truncate":
            frame = frame[: wire.HEADER_BYTES - 5]
        elif mutation == "magic":
            frame[:4] = b"XXXX"
        else:  # promise more payload words than the frame carries
            frame[13:21] = (10**6).to_bytes(8, "little")
        with pytest.raises(WireError):
            wire.unpack(bytes(frame))
        # WireError is a ValueError: pre-existing callers keep working.
        assert issubclass(WireError, ValueError)

    def test_control_frames_roundtrip(self):
        nack = wire.unpack(wire.pack_nack(2, 9))
        assert (nack.kind, nack.src, nack.block) == (wire.NACK, 2, 9)
        assert nack.payload is None
        done = wire.unpack(wire.pack_done(3))
        assert (done.kind, done.src) == (wire.DONE, 3)
        abort = wire.unpack(wire.pack_abort(1))
        assert abort.kind == wire.ABORT

    def test_cheap_peeks_match_full_decode(self):
        frame = _block_frame(src=1, block=42)
        assert wire.frame_kind(frame) == wire.BLOCK
        assert wire.frame_block(frame) == 42
        assert wire.frame_kind(wire.pack_nack(0, 7)) == wire.NACK
        assert wire.frame_block(wire.pack_nack(0, 7)) == 7
        with pytest.raises(WireError):
            wire.frame_kind(b"xy")


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_inactive_by_default(self):
        plan = FaultPlan(seed=3)
        assert not plan.active
        assert not plan.message_faults_active

    @pytest.mark.parametrize("name", FAULT_CLASSES)
    def test_scenarios_cover_every_fault_class(self, name):
        plan = FaultPlan.scenario(name, seed=1, rate=0.25)
        assert plan.active
        if name in MESSAGE_FAULTS:
            assert getattr(plan, name) == 0.25
        elif name == "crash":
            assert plan.crash_for(1) is not None
        else:
            assert plan.slow_for(1) > 0

    def test_scenario_none_and_unknown(self):
        assert not FaultPlan.scenario("none").active
        with pytest.raises(KeyError):
            FaultPlan.scenario("cosmic-rays")

    def test_transient_crash_filtered_on_restart(self):
        plan = FaultPlan.scenario("crash", seed=0)
        assert plan.for_attempt(0).crash_for(1) is not None
        assert plan.for_attempt(1).crash_for(1) is None
        assert plan.for_attempt(1).attempt == 1

    def test_persistent_crash_survives_restart(self):
        plan = FaultPlan.scenario("crash-persistent", seed=0)
        assert plan.for_attempt(3).crash_for(1) is not None

    def test_message_faults_rekeyed_not_dropped_on_restart(self):
        plan = FaultPlan.scenario("drop", rate=0.3)
        again = plan.for_attempt(2)
        assert again.drop == 0.3 and again.attempt == 2


# ----------------------------------------------------------------------
# FaultyLink
# ----------------------------------------------------------------------
def _faulty_link(plan, src=0, dst=1):
    injector = FaultInjector(plan, src)
    q = _ListQueue()
    return FaultyLink(src, dst, q, injector), q, injector


class TestFaultyLink:
    def test_wrap_links_only_when_message_faults_active(self):
        links = {1: Link(0, 1, _ListQueue())}
        crash_only = FaultPlan.scenario("crash")
        assert FaultInjector(crash_only, 0).wrap_links(links) is links
        wrapped = FaultInjector(
            FaultPlan.scenario("drop", rate=1.0), 0
        ).wrap_links(links)
        assert isinstance(wrapped[1], FaultyLink)

    def test_drop_eats_frame_but_counts_it(self):
        link, q, injector = _faulty_link(FaultPlan(drop=1.0))
        frame = _block_frame()
        link.send(frame)
        assert q.items == []
        assert link.messages == 1 and link.bytes == len(frame)
        assert injector.injected["drop"] == 1

    def test_duplicate_sends_twice(self):
        link, q, injector = _faulty_link(FaultPlan(duplicate=1.0))
        link.send(_block_frame())
        assert len(q.items) == 2
        assert q.items[0] == q.items[1]
        assert injector.injected["duplicate"] == 1

    def test_corrupt_payload_fails_crc(self):
        link, q, injector = _faulty_link(FaultPlan(corrupt=1.0))
        link.send(_block_frame())
        assert injector.injected["corrupt"] == 1
        with pytest.raises(CorruptFrameError):
            wire.unpack(q.items[0])

    def test_corrupt_header_fails_decode(self):
        link, q, injector = _faulty_link(FaultPlan(corrupt_header=1.0))
        link.send(_block_frame())
        assert injector.injected["corrupt_header"] == 1
        with pytest.raises(WireError):
            wire.unpack(q.items[0])

    def test_delay_reorders_and_flush_releases(self):
        link, q, _ = _faulty_link(FaultPlan(delay=1.0, delay_messages=2))
        f1 = _block_frame(block=1, I=1, J=0)
        f2 = _block_frame(block=2, I=2, J=0)
        link.send(f1)
        assert q.items == []  # held
        link.send(f2)
        assert q.items == [f1]  # released by the second send: reordered
        link.flush()
        assert q.items == [f1, f2]
        link.flush()
        assert len(q.items) == 2  # flush is idempotent

    def test_control_frames_never_faulted(self):
        link, q, injector = _faulty_link(
            FaultPlan(drop=1.0, corrupt=1.0, delay=1.0)
        )
        link.send(wire.pack_nack(0, 3))
        link.send_control(wire.pack_done(0))
        assert len(q.items) == 2
        wire.unpack(q.items[0])  # still intact
        wire.unpack(q.items[1])
        assert all(v == 0 for v in injector.injected.values())
        assert link.control_messages == 1

    def test_decisions_deterministic_across_instances(self):
        """Same seed, link and send sequence -> identical fates."""
        def run(seed):
            link, q, injector = _faulty_link(
                FaultPlan(seed=seed, drop=0.4, duplicate=0.4, corrupt=0.2)
            )
            for i in range(30):
                link.send(_block_frame(block=i % 7, I=i % 7, J=0))
            return [bytes(f) for f in q.items], dict(injector.injected)

        frames_a, counts_a = run(seed=5)
        frames_b, counts_b = run(seed=5)
        assert frames_a == frames_b
        assert counts_a == counts_b
        frames_c, _ = run(seed=6)
        assert frames_a != frames_c

    def test_occurrence_counter_varies_repeat_sends(self):
        """Retransmits of one block draw fresh decisions (else a dropped
        block would be dropped forever)."""
        plan = FaultPlan(seed=0, drop=0.5)
        link, q, injector = _faulty_link(plan)
        for _ in range(40):
            link.send(_block_frame(block=3))
        assert 0 < injector.injected["drop"] < 40
        assert len(q.items) == 40 - injector.injected["drop"]

    def test_resend_counts_retransmit(self):
        link, q, _ = _faulty_link(FaultPlan(seed=0, drop=0.0))
        link.resend(_block_frame())
        assert link.retransmits == 1 and link.messages == 1
