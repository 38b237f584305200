"""Conformance tests for the structured runtime trace.

A traced run must tell the same story as the metrics layer: every task
exactly once, per-worker event order coherent, message counts/bytes equal
to both the measured RunMetrics and the static communication-volume
prediction, and the trace-replay validator must reconcile all of it
exactly on fault-free runs. Chaos runs must leave fault fingerprints in
the trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comm_volume import communication_volume
from repro.analysis.trace_replay import REPLAYED, replay_trace, validate_trace
from repro.fanout.tasks import BMOD
from repro.runtime import (
    CrashSpec,
    FaultPlan,
    plan_owners,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.trace import DEFAULT_CAPACITY, RunTrace, TraceRecorder
from tests.conftest import facade_job, mp_fanout


@pytest.fixture(scope="module")
def traced_run(grid12_pipeline):
    """One fault-free traced P=2 run, shared across the module."""
    _, sf, _, bs, wm, tg = grid12_pipeline
    owners, name = plan_owners(wm, tg, 2, "DW/CY")
    res = mp_fanout(
        bs, sf.A, tg, nprocs=2, mapping="DW/CY", trace=True
    )
    return res, tg, owners


class TestFaultFreeConformance:
    def test_trace_present_and_complete(self, traced_run):
        res, tg, owners = traced_run
        tr = res.trace
        assert tr is not None
        assert tr.total_dropped == 0
        assert tr.attempts == [0]
        assert tr.nprocs == 2
        assert tr.meta["mapping"] == "DW/CY"

    def test_every_task_exactly_once(self, traced_run):
        """A panel factor (PFAC) span names its BFAC / BDIVs, a panel
        update (PMOD) span its member BMODs, a rank's local pass (LOCAL)
        span every task of its local columns; together, every task once.
        Each rank runs one local pass, and on this 1 x 2 grid its ops and
        the dispatched ones are one per panel and per (K, J) pair."""
        res, tg, owners = traced_run
        tids = [
            t for e in res.trace.events if e.cat == "task"
            for t in e.args.get("tids", [e.args.get("tid")])
        ]
        assert len(tids) == tg.ntasks
        assert len(set(tids)) == tg.ntasks
        assert sorted(tids) == list(range(tg.ntasks))
        spans = [e for e in res.trace.events if e.cat == "task"]
        local = [e for e in spans if e.name == "LOCAL"]
        assert sorted(e.rank for e in local) == [0, 1]
        assert len(spans) - len(local) == res.metrics.ops_total < tg.ntasks
        mods = tg.task_kind == BMOD
        pairs = set(zip(tg.block_J[tg.task_src1[mods]].tolist(),
                        tg.block_J[tg.task_block[mods]].tolist()))
        assert res.metrics.ops_total + sum(e.args["ops"] for e in local) == (
            tg.npanels + len(pairs))

    def test_tasks_ran_on_their_owner(self, traced_run):
        res, tg, owners = traced_run
        for e in res.trace.events:
            if e.cat == "task":
                for b in e.args.get("blocks", [e.args.get("block")]):
                    assert e.rank == owners[b]

    def test_per_worker_event_order_monotone(self, traced_run):
        res, tg, owners = traced_run
        for rank, events in res.trace.per_worker(0).items():
            ends = [e.t1 for e in events]
            assert all(a <= b for a, b in zip(ends, ends[1:]))
            assert all(e.t0 <= e.t1 for e in events)

    def test_messages_match_metrics_and_prediction(self, traced_run):
        res, tg, owners = traced_run
        rep = replay_trace(res.trace)
        met = res.metrics
        assert rep.messages_total == met.messages_total
        assert rep.bytes_total == met.bytes_total
        predicted = communication_volume(tg, owners)
        assert rep.messages_total == predicted.messages
        assert rep.bytes_total == predicted.bytes
        # Conservation inside the run: every sent frame was received.
        assert sum(w.messages_received for w in rep.workers) == \
            met.messages_total

    def test_replay_reconciles_exactly(self, traced_run):
        res, tg, owners = traced_run
        report = validate_trace(
            res.trace, metrics=res.metrics, tg=tg, owners=owners,
            strict=True,
        )
        assert report.ok
        rep = report.replay
        for w in res.metrics.workers:
            # Bitwise-equal float sums: the trace mirrors every timeline
            # segment with identical endpoints in identical order.
            mine = rep.workers[w.rank]
            assert mine.busy_s == w.busy_s
            assert mine.comm_s == w.comm_s
            assert mine.idle_s == w.idle_s
            assert mine.work_executed == w.work_executed
        assert abs(rep.work_balance - res.metrics.work_balance) < 1e-9

    def test_replay_is_the_runs_own_metrics(self, traced_run):
        res, tg, owners = traced_run
        rep = replay_trace(res.trace)
        assert isinstance(rep, RuntimeMetrics)
        assert rep.measured_balance == res.metrics.measured_balance
        assert rep.work_balance == res.metrics.work_balance
        assert rep.messages_total == res.metrics.messages_total

    def test_trace_counters_in_metrics(self, traced_run):
        res, tg, owners = traced_run
        for w in res.metrics.workers:
            per_rank = [
                e for e in res.trace.events if e.rank == w.rank
            ]
            assert w.trace_events == len(per_rank)
            assert w.trace_dropped == 0

    def test_serialization_round_trip(self, traced_run, tmp_path):
        res, tg, owners = traced_run
        path = tmp_path / "run.trace.json"
        res.trace.dump(path)
        back = RunTrace.load(path)
        assert back.meta == res.trace.meta
        assert back.events == res.trace.events
        rep = validate_trace(back, metrics=res.metrics, strict=True)
        assert rep.ok

    def test_chrome_export_shape(self, traced_run):
        res, tg, owners = traced_run
        doc = res.trace.to_chrome()
        events = doc["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        metas = [e for e in events if e.get("ph") == "M"]
        assert len(spans) == sum(
            1 for e in res.trace.events if e.cat != "mark"
        )
        assert {m["args"]["name"] for m in metas} >= {
            "worker 0", "worker 1",
        }
        for s in spans:
            assert s["dur"] >= 0
            assert s["tid"] in (0, 1)

    def test_gantt_renders(self, traced_run):
        res, tg, owners = traced_run
        chart = res.trace.gantt(width=48)
        assert "w0" in chart and "w1" in chart
        assert "#" in chart  # some busy time is always visible


#: Every WorkerMetrics field a trace replays, spelled out: dropping one
#: from ``REPLAYED`` fails its case below, adding one fails the first test.
REPLAYED_FIELDS = (
    "busy_s", "comm_s", "idle_s",
    "tasks_executed", "ops_executed", "task_counts",
    "flops_executed", "work_executed",
    "messages_sent", "bytes_sent", "messages_received", "bytes_received",
    "wire_bytes_sent", "wire_bytes_received",
    "steal_reqs_sent", "steal_grants", "steal_denies",
    "tasks_stolen", "tasks_shipped", "work_stolen", "work_shipped",
    "solve_busy_s", "solve_comm_s", "solve_idle_s",
    "solve_tasks_executed", "solve_task_counts", "solve_work_executed",
    "solve_messages_sent", "solve_bytes_sent",
    "solve_messages_received", "solve_bytes_received",
)


class TestEveryReplayedFieldIsChecked:
    def test_the_fields_are_exactly_these(self):
        assert set(REPLAYED) == set(REPLAYED_FIELDS)

    @pytest.mark.parametrize("name", REPLAYED_FIELDS)
    def test_a_perturbed_field_fails_by_name(self, traced_run, name):
        res, tg, owners = traced_run
        metrics = RuntimeMetrics.from_dict(res.metrics.to_dict())
        assert validate_trace(res.trace, metrics=metrics).ok
        w = metrics.workers[1]
        value = getattr(w, name)
        if isinstance(value, dict):
            value = dict(value)
            value[next(iter(value))] += 1
        else:
            value += 1
        setattr(w, name, value)
        report = validate_trace(res.trace, metrics=metrics, strict=False)
        assert not report.ok
        assert any(f.startswith(f"worker 1: replayed {name} ")
                   for f in report.failures), report.failures


def _covered(spans):
    """Seconds covered by the union of ``(t0, t1)`` spans."""
    total, end = 0.0, -np.inf
    for t0, t1 in sorted(spans):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


class TestTwoRowGrid:
    def test_segments_stay_disjoint(self, grid12_pipeline):
        """On a 2 x 2 grid a diagonal owner sends L_KK inside its PFAC
        span: that publish leaves the busy total (as ``publish_s``), so
        busy, comm and idle never count a second twice and fit the pump."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 4, "DW/CY")
        res = mp_fanout(
            bs, sf.A, tg, nprocs=4, mapping="DW/CY", trace=True
        )
        report = validate_trace(res.trace, metrics=res.metrics, tg=tg,
                                owners=owners, strict=True)
        assert report.ok
        nested = [e for e in res.trace.events
                  if e.cat == "task" and "publish_s" in e.args]
        assert nested and all(e.name.startswith("PFAC") for e in nested)
        for w in res.metrics.workers:
            assert report.replay.workers[w.rank].busy_s == w.busy_s
            assert w.busy_s + w.comm_s + w.idle_s <= w.pump_s
            spans = [(e.t0, e.t1) for e in res.trace.events
                     if e.rank == w.rank and e.cat != "mark"]
            assert w.busy_s + w.comm_s + w.idle_s <= _covered(spans) + 1e-9


class TestTracingOff:
    def test_no_trace_by_default(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=2, mapping="cyclic")
        assert res.trace is None
        assert all(w.trace_events == 0 for w in res.metrics.workers)

    def test_capacity_validation(self, grid12_pipeline):
        """``trace`` is on/off: a capacity is refused before any spawn."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        with pytest.raises(ValueError, match="trace must be bool"):
            mp_fanout(
                bs, sf.A, tg, nprocs=2, mapping="cyclic", trace=16
            )

    def test_ring_drops_oldest(self):
        rec = TraceRecorder(capacity=4)
        for i in range(10):
            rec.mark(f"m{i}", float(i))
        snap = rec.snapshot(rank=0)
        assert snap.dropped == 6
        assert [name for _cat, name, *_ in snap.events] == [
            "m6", "m7", "m8", "m9",
        ]

    def test_default_capacity_is_large(self):
        assert DEFAULT_CAPACITY >= 1 << 16


class TestChaosTraces:
    def test_corrupt_frames_leave_fingerprints(self, grid12_pipeline):
        """The attempt a corrupt frame failed is stitched in front of the
        re-run: it ends in the ABORT fan-out of the rank that rejected the
        frame, and the re-run replays exactly, like any fault-free run."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=123, corrupt=0.08)
        res = facade_job(sf.A, nprocs=2, mapping="cyclic", fault_plan=plan,
                         trace=True)
        rep = res.failure_report
        assert rep.outcome == "recovered"
        assert "CorruptFrameError" in rep.attempts[0].error
        tr = res.trace
        assert tr.attempts == [0, 1]
        first = {e.name for e in tr.events if e.attempt == 0}
        assert "abort_sent" in first
        assert not {e.name for e in tr.events if e.attempt == 1} & {
            "abort_sent", "abort_recv"}
        check = validate_trace(tr, attempt=1, metrics=res.metrics)
        assert check.ok, check.failures

    def test_crash_recovery_stitches_attempts(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=7, crash=(CrashSpec(rank=1, after_tasks=5),))
        res = facade_job(sf.A, nprocs=2, mapping="cyclic", fault_plan=plan,
                         trace=True)
        assert res.failure_report.outcome == "recovered"
        tr = res.trace
        assert tr.attempts == [0, 1]
        marks = {e.name for e in tr.events if e.cat == "mark"}
        # The failed attempt-0 trace carries the crash and the abort
        # fan-out; the restarted attempt runs every task from scratch.
        assert "crash" in marks
        assert "abort_sent" in marks or "abort_recv" in marks
        crash_events = [e for e in tr.events if e.name == "crash"]
        assert all(e.attempt == 0 for e in crash_events)
        # The final attempt's replay reconciles exactly.
        rep = validate_trace(tr, attempt=1, metrics=res.metrics)
        assert rep.ok, rep.failures

    def test_service_stitches_the_attempts_of_a_recovered_job(
        self, grid12_pipeline
    ):
        """The service keeps the failed attempt's trace, as the façade
        does, and labels the re-run with its own attempt number."""
        from repro.service import FactorService

        _, sf, _, bs, wm, tg = grid12_pipeline
        plan = FaultPlan(seed=7, crash=(CrashSpec(rank=1, after_tasks=5),))
        with FactorService(nprocs=2, mapping="cyclic", ordering="natural",
                           block_size=8, trace=True) as svc:
            res = svc.factor(sf.A, fault_plan=plan)
        assert res.record.outcome == "recovered"
        assert res.trace.attempts == [0, 1]
        crashes = {e.attempt for e in res.trace.events if e.name == "crash"}
        assert crashes == {0}
        rep = validate_trace(res.trace, attempt=1, metrics=res.metrics)
        assert rep.ok, rep.failures

    def test_recovery_from_a_real_death_labels_the_rerun(
        self, grid12_pipeline
    ):
        """No fault plan: a rank SIGKILLed between two factors fails the
        next job's first attempt, and its re-run is attempt 1. The pool
        gives up on a dead crew at once, so the failed attempt ships no
        events and the trace holds the re-run alone."""
        import os
        import signal

        from repro.solver import SparseCholesky

        _, sf, _, bs, wm, tg = grid12_pipeline
        with SparseCholesky(sf.A, ordering="natural", block_size=8,
                            backend="mp", nprocs=2, mapping="cyclic",
                            trace=True) as chol:
            chol.factor()
            victim = chol._crew[1]._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            res = chol._run_mp()
        assert res.failure_report.outcome == "recovered"
        assert res.trace.attempts == [1]
        assert res.trace.meta["attempt"] == 1
        rep = validate_trace(res.trace, attempt=1, metrics=res.metrics)
        assert rep.ok, rep.failures
