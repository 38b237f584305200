"""Units of the runtime's plumbing: wire format, links, scheduler, metrics."""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.machine.params import PARAGON
from repro.runtime import wire
from repro.runtime.links import Link, LinkFabric
from repro.runtime.metrics import (
    RuntimeMetrics,
    TimelineRecorder,
    WorkerMetrics,
)
from repro.runtime.scheduler import ReadyScheduler


class TestWireFormat:
    def test_subdiagonal_roundtrip(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(5, 3))
        frame = wire.pack_block(2, 17, 9, 4, arr)
        msg = wire.unpack(frame)
        assert msg.kind == wire.BLOCK
        assert (msg.src, msg.block) == (2, 17)
        assert (msg.rows, msg.cols) == (5, 3)
        np.testing.assert_array_equal(msg.payload, arr)

    def test_diagonal_ships_packed_triangle(self):
        rng = np.random.default_rng(1)
        arr = np.tril(rng.normal(size=(6, 6)))
        frame = wire.pack_block(0, 3, 2, 2, arr)
        # 64-byte header + w*(w+1)/2 words, not w^2.
        assert len(frame) == wire.HEADER_BYTES + 8 * (6 * 7 // 2)
        msg = wire.unpack(frame)
        np.testing.assert_array_equal(msg.payload, arr)
        assert np.array_equal(np.triu(msg.payload, 1), np.zeros((6, 6)))

    def test_diagonal_upper_junk_dropped(self):
        """Only the lower triangle travels; upper garbage must not."""
        arr = np.tril(np.ones((4, 4))) + np.triu(np.full((4, 4), 99.0), 1)
        msg = wire.unpack(wire.pack_block(0, 0, 1, 1, arr))
        np.testing.assert_array_equal(msg.payload, np.tril(np.ones((4, 4))))

    def test_packed_triangle_is_layout_independent(self):
        """A Fortran-ordered square (what bfac yields) packs to the same
        bytes as its C-ordered copy, on block and steal-state frames, and
        unpacks to a C-contiguous, writable, zero-upper square."""
        a = np.tril(np.random.default_rng(2).normal(size=(7, 7)))
        f = np.asfortranarray(a)
        assert wire.pack_block(0, 3, 2, 2, f) == wire.pack_block(0, 3, 2, 2, a)
        assert (wire.pack_steal_grant(0, 9, True, f)
                == wire.pack_steal_grant(0, 9, True, a))
        tri = a[np.tril_indices(7)]
        assert wire.pack_block(0, 3, 2, 2, f)[wire.HEADER_BYTES:] == (
            tri.tobytes()
        )
        got = wire.unpack(wire.pack_block(0, 3, 2, 2, f)).payload
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, a)

    def test_one_by_one_diagonal(self):
        msg = wire.unpack(wire.pack_block(0, 5, 3, 3, np.array([[4.0]])))
        np.testing.assert_array_equal(msg.payload, [[4.0]])

    def test_frame_bytes_match_machine_model(self):
        """Measured frame length == message_bytes(block_words): the wire
        format is byte-compatible with the comm_volume predictor."""
        sub = np.zeros((7, 4))
        frame = wire.pack_block(0, 0, 8, 2, sub)
        assert len(frame) == PARAGON.message_bytes(7 * 4)
        diag = np.zeros((5, 5))
        frame = wire.pack_block(0, 0, 2, 2, diag)
        assert len(frame) == PARAGON.message_bytes(5 * 6 // 2)

    def test_abort_roundtrip(self):
        msg = wire.unpack(wire.pack_abort(3))
        assert msg.kind == wire.ABORT
        assert msg.src == 3
        assert msg.payload is None

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            wire.unpack(b"nope" + b"\0" * 80)
        with pytest.raises(ValueError):
            wire.unpack(b"\0" * 8)
        with pytest.raises(ValueError):
            wire.pack_block(0, 0, 1, 1, np.zeros((3, 2)))  # diag not square
        with pytest.raises(ValueError):
            wire.pack_block(0, 0, 1, 0, np.zeros(3))  # not 2-D


class TestLinks:
    def test_link_counters_and_delivery(self):
        fabric = LinkFabric(3, mp.get_context())
        links = fabric.outgoing(0)
        assert sorted(links) == [1, 2]
        frame = wire.pack_abort(0)
        links[1].send(frame)
        links[1].send(frame)
        assert links[1].messages == 2
        assert links[1].bytes == 2 * len(frame)
        assert links[2].messages == 0
        links[1].flush()  # a link batches its frames: one put per flush
        got = fabric.inbox(1).get(timeout=5)
        assert got == [frame, frame]
        fabric.shutdown()

    def test_rejects_bad_nprocs(self):
        with pytest.raises(ValueError):
            LinkFabric(0, mp.get_context())


class TestReadyScheduler:
    def test_fifo_order(self):
        s = ReadyScheduler()
        for t in (5, 1, 9):
            s.push(t)
        assert [s.pop() for _ in range(3)] == [5, 1, 9]
        assert not s


class TestTimelineRecorder:
    def test_merges_adjacent_same_category(self):
        """Spans of one category fold into that category's one total."""
        tl = TimelineRecorder()
        tl.add("busy", 0.0, 1.0)
        tl.add("busy", 1.0, 2.0)
        tl.add("idle", 2.0, 3.0)
        assert tl.totals["busy"] == pytest.approx(2.0)
        assert tl.totals["idle"] == pytest.approx(1.0)
        assert tl.totals["comm"] == 0.0

    def test_ignores_empty_segments(self):
        tl = TimelineRecorder()
        tl.add("busy", 1.0, 1.0)
        tl.add("busy", 2.0, 1.5)
        assert tl.totals["busy"] == 0.0


def _sample_metrics():
    w0 = WorkerMetrics(
        rank=0, tasks_executed=10, busy_s=2.0, comm_s=0.5, idle_s=0.5,
        work_executed=2000, messages_sent=4, bytes_sent=400,
        links={1: [4, 400]},
    )
    w1 = WorkerMetrics(
        rank=1, tasks_executed=6, busy_s=1.0, comm_s=0.25, idle_s=1.75,
        work_executed=1000, messages_sent=2, bytes_sent=200,
        links={0: [2, 200]},
    )
    return RuntimeMetrics(
        nprocs=2, wall_s=3.25, workers=[w1, w0], mapping="DW/CY",
        problem="T",
    )


class TestRuntimeMetrics:
    def test_workers_sorted_and_aggregates(self):
        m = _sample_metrics()
        assert [w.rank for w in m.workers] == [0, 1]
        assert m.messages_total == 6
        assert m.bytes_total == 600
        assert m.tasks_total == 16
        # total/(P*max) with busy = [2, 1]
        assert m.measured_balance == pytest.approx(3.0 / (2 * 2.0))
        assert m.work_balance == pytest.approx(3000 / (2 * 2000))
        assert m.imbalance == pytest.approx(2.0 / 1.5)

    def test_link_matrix(self):
        M = _sample_metrics().link_matrix()
        assert M[0, 1] == 4 and M[1, 0] == 2
        assert M[0, 0] == 0

    def test_json_roundtrip(self):
        m = _sample_metrics()
        back = RuntimeMetrics.from_json(m.to_json())
        assert back.nprocs == m.nprocs
        assert back.wall_s == pytest.approx(m.wall_s)
        assert back.mapping == "DW/CY"
        assert back.workers[0].links == {1: [4, 400]}
        assert back.measured_balance == pytest.approx(m.measured_balance)
        # to_dict is json-serializable throughout
        json.dumps(m.to_dict())

    def test_render_mentions_every_worker(self):
        text = _sample_metrics().render()
        assert "w0" in text and "w1" in text
        assert "busy" in text and "idle" in text and "comm" in text
        assert "balance" in text

    def test_gather_is_named_on_the_artifact(self):
        m = _sample_metrics()
        assert "gather=" not in m.render()
        m.extra["gather"] = {"mode": "arena", "blocks": 1693,
                             "bytes": 1298112, "copy_s": 0.0019,
                             "check_s": 0.0011}
        assert ("gather=arena 1693 blocks 1.30 MB copy=1.9ms check=1.1ms"
                in m.render().splitlines()[-1])
        back = RuntimeMetrics.from_json(m.to_json())
        assert back.extra["gather"] == m.extra["gather"]

    def test_empty_balance_is_one(self):
        m = RuntimeMetrics(nprocs=1, wall_s=0.0,
                           workers=[WorkerMetrics(rank=0)])
        assert m.measured_balance == 1.0
        assert m.imbalance == 1.0
