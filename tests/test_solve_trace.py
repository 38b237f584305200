"""Traced solve runs replay exactly, and their skeleton is golden.

A traced factor+solve run carries four new span categories
(``solve_task``, ``solve_send``, ``solve_recv``, ``solve_idle``);
:func:`repro.analysis.trace_replay.replay_trace` recomputes the solve
busy/comm/idle split, per-worker solve work, and solve message/byte
ledgers from those spans, and ``validate_trace`` requires them to
reconcile exactly with :class:`~repro.runtime.metrics.RuntimeMetrics`
and the :func:`~repro.analysis.comm_volume.solve_communication_volume`
predictor.

The deterministic *shape* of the solve phase (which solve tasks ran on
which rank, which panels each rank sent and received) is pinned by a
golden skeleton at ``tests/golden/trace_skeleton_solve_grid12_p2.json``.
Regenerate after an intentional protocol change with::

    PYTHONPATH=src python tests/test_solve_trace.py --regen
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.comm_volume import solve_communication_volume
from repro.analysis.trace_replay import replay_trace, validate_trace
from repro.runtime import plan_owners, run_mp_fanout
from repro.runtime.trace import SPAN_CATEGORIES, RunTrace

GOLDEN = Path(__file__).parent / "golden" / (
    "trace_skeleton_solve_grid12_p2.json"
)

NRHS = 2

_SOLVE_TASK = re.compile(r"^(FSOLVE|FUPD|BSOLVE|BUPD)\((\d+)(?:,(\d+))?\)$")


def _rhs(n: int) -> np.ndarray:
    return np.random.default_rng(77).standard_normal((n, NRHS))


def _run_traced(pipeline, schedule="static"):
    _, sf, _, bs, wm, tg = pipeline
    owners, name = plan_owners(wm, tg, 2, "DW/CY")
    res = run_mp_fanout(
        bs, sf.A, tg, owners, 2, mapping=name, trace=True,
        schedule=schedule, rhs=_rhs(sf.A.shape[0]),
    )
    return res, tg, owners


def _solve_skeleton(trace) -> dict:
    """Deterministic shape of the solve phase: per-rank sorted
    solve_task/solve_send/solve_recv names (a local pass with the panels
    it swept) + the run identity. No timestamps, no cross-worker
    interleaving, no idle spans."""
    per_rank: dict[str, dict[str, list[str]]] = {}
    for e in trace.events:
        if e.cat not in ("solve_task", "solve_send", "solve_recv"):
            continue
        lane = per_rank.setdefault(str(e.rank), {
            "solve_task": [], "solve_send": [], "solve_recv": [],
        })
        panels = e.args.get("panels") if e.args else None
        lane[e.cat].append(e.name if panels is None else f"{e.name}{panels}")
    for lane in per_rank.values():
        for names in lane.values():
            names.sort()
    return {
        "problem": "GRID12 nd B=8",
        "nprocs": trace.meta.get("nprocs"),
        "mapping": trace.meta.get("mapping"),
        "nrhs": trace.meta.get("nrhs"),
        "per_rank": per_rank,
    }


@pytest.fixture(scope="module")
def traced_solve(grid12_pipeline):
    return _run_traced(grid12_pipeline)


class TestReplay:
    def test_solve_categories_registered(self):
        for cat in ("solve_task", "solve_send", "solve_recv",
                    "solve_idle"):
            assert cat in SPAN_CATEGORIES

    def test_replay_reconciles_with_metrics(self, traced_solve):
        """Bitwise-equal float sums and integer-exact ledgers, per
        worker, for the whole solve plane."""
        res, tg, owners = traced_solve
        rep = replay_trace(res.trace)
        assert rep.solve_tasks_total
        for w in res.metrics.workers:
            mine = rep.workers[w.rank]
            assert mine.solve_busy_s == w.solve_busy_s
            assert mine.solve_comm_s == w.solve_comm_s
            assert mine.solve_idle_s == w.solve_idle_s
            assert mine.solve_tasks_executed == w.solve_tasks_executed
            assert mine.solve_work_executed == w.solve_work_executed
            assert mine.solve_task_counts == w.solve_task_counts
            assert mine.solve_messages_sent == w.solve_messages_sent
            assert mine.solve_bytes_sent == w.solve_bytes_sent
            assert (
                mine.solve_messages_received
                == w.solve_messages_received
            )
            assert (
                mine.solve_bytes_received
                == w.solve_bytes_received
            )

    def test_replay_matches_predictor(self, traced_solve):
        res, tg, owners = traced_solve
        rep = replay_trace(res.trace)
        pred = solve_communication_volume(tg, owners, nrhs=NRHS)
        assert rep.solve_messages_total == pred.messages
        assert rep.solve_bytes_total == pred.bytes
        assert sum(
            w.solve_messages_received for w in rep.workers
        ) == pred.messages
        assert sum(w.solve_bytes_received for w in rep.workers) == pred.bytes

    def test_validate_strict_includes_solve_check(self, traced_solve):
        res, tg, owners = traced_solve
        report = validate_trace(
            res.trace, metrics=res.metrics, tg=tg, owners=owners,
            strict=True,
        )
        assert report.ok, report.failures
        assert any("solve" in c for c in report.checks)

    def test_dynamic_schedule_validates_too(self, grid12_pipeline):
        """Work stealing perturbs the factor phase; the solve phase
        still replays and reconciles exactly."""
        res, tg, owners = _run_traced(grid12_pipeline, schedule="dynamic")
        report = validate_trace(
            res.trace, metrics=res.metrics, tg=tg, owners=owners,
            strict=True,
        )
        assert report.ok, report.failures

    def test_round_trip_preserves_solve_events(self, traced_solve,
                                               tmp_path):
        res, tg, owners = traced_solve
        path = tmp_path / "solve.trace.json"
        res.trace.dump(path)
        back = RunTrace.load(path)
        assert back.meta.get("nrhs") == NRHS
        rep = validate_trace(back, metrics=res.metrics, strict=True)
        assert rep.ok
        assert _solve_skeleton(back) == _solve_skeleton(res.trace)

    def test_chrome_export_carries_solve_spans(self, traced_solve):
        res, tg, owners = traced_solve
        doc = res.trace.to_chrome()
        cats = {
            e.get("cat") for e in doc["traceEvents"]
            if e.get("ph") == "X"
        }
        assert "solve_task" in cats
        assert "solve_send" in cats or "solve_recv" in cats


class TestGoldenSkeleton:
    def test_skeleton_matches_golden(self, traced_solve):
        res, tg, owners = traced_solve
        assert GOLDEN.exists(), (
            f"golden solve skeleton missing; regenerate with "
            f"PYTHONPATH=src python {__file__} --regen"
        )
        want = json.loads(GOLDEN.read_text())
        got = _solve_skeleton(res.trace)
        assert got == want

    def test_forward_before_backward_per_panel(self, traced_solve):
        """Per rank: FSOLVE(k) precedes BSOLVE(k); FUPD(k, g) follows
        FSOLVE(k) and precedes BUPD(k, g) when they ran on the same
        rank (g is that rank). A local pass stands for its panels'
        tasks in the order it ran them: FLOCAL ascending, FSOLVE(k) then
        FUPD(k, g); BLOCAL descending, BUPD(k, g) then BSOLVE(k)."""
        res, tg, owners = traced_solve
        below = np.diff(tg.subdiag_ptr) > 0  # columns with a FUPD / BUPD
        for rank, events in res.trace.per_worker(0).items():
            tasks = []
            for e in events:
                if e.cat != "solve_task":
                    continue
                for k in (e.args["panels"] if e.name == "FLOCAL" else
                          e.args["panels"][::-1] if e.name == "BLOCAL"
                          else ()):
                    run = [f"FSOLVE({k})", f"FUPD({k},{rank})"][:1 + below[k]]
                    tasks += run if e.name == "FLOCAL" else [
                        f"BUPD({k},{rank})", f"BSOLVE({k})"][1 - below[k]:]
                if e.name not in ("FLOCAL", "BLOCAL"):
                    tasks.append(e.name)
            assert len(tasks) == res.metrics.workers[rank].solve_tasks_executed
            pos = {name: i for i, name in enumerate(tasks)}
            for name, i in pos.items():
                kind, a, g = _SOLVE_TASK.match(name).group(1, 2, 3)
                if kind == "BSOLVE" and f"FSOLVE({a})" in pos:
                    assert pos[f"FSOLVE({a})"] < i
                if kind == "FUPD":
                    assert int(g) == rank
                    if f"FSOLVE({a})" in pos:
                        assert pos[f"FSOLVE({a})"] < i
                    assert i < pos[f"BUPD({a},{g})"]


def _regen() -> None:
    from repro.blocks import BlockPartition, BlockStructure, WorkModel
    from repro.fanout import TaskGraph
    from repro.matrices import grid2d_matrix
    from repro.ordering import order_problem
    from repro.symbolic import symbolic_factor

    problem = grid2d_matrix(12)
    sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
    part = BlockPartition(sf, 8)
    bs = BlockStructure(part)
    wm = WorkModel(bs)
    tg = TaskGraph(wm)
    res, _, _ = _run_traced((problem, sf, part, bs, wm, tg))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(_solve_skeleton(res.trace), indent=2) + "\n"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
