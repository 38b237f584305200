"""Golden end-to-end trace test.

A seeded GRID problem (12x12 grid, nd ordering, B=8) factored on P=2
workers with the DW/CY mapping produces a deterministic *trace skeleton*:
which ops (each rank's local pass LOCAL, the panel factors PFAC(K) that
run a column's BFAC and BDIVs, and the panel updates PMOD(K,J) that run
the BMODs) ran on which rank,
which blocks each rank sent and received, and which event categories
appeared. Timestamps and the interleaving of events *across* workers are
timing-dependent and are deliberately NOT part of the skeleton; per-rank
dependency ordering is checked programmatically instead (panel updates
into a panel in ascending K and before its panel factor, and after the
panel factor of their source when that ran on the same rank).

The skeleton is checked in at ``tests/golden/trace_skeleton_grid12_p2.json``.
Regenerate after an intentional protocol change with::

    PYTHONPATH=src:. python tests/test_trace_golden.py --regen
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.runtime import plan_owners
from tests.conftest import mp_fanout

GOLDEN = Path(__file__).parent / "golden" / "trace_skeleton_grid12_p2.json"

_COORD = re.compile(r"^(PMOD|recv|send)\((\d+),(\d+)\)$")
_PFAC = re.compile(r"^PFAC\((\d+)\)$")


def _run_traced(pipeline):
    _, sf, _, bs, wm, tg = pipeline
    res = mp_fanout(
        bs, sf.A, tg, nprocs=2, mapping="DW/CY", trace=True
    )
    return res, tg


def _skeleton(trace) -> dict:
    """The deterministic shape of a trace: per-rank sorted task/send/recv
    names, the category inventory, and the run identity — no timestamps,
    no cross-worker interleaving."""
    per_rank: dict[str, dict[str, list[str]]] = {}
    categories = set()
    for e in trace.events:
        categories.add(e.cat)
        if e.cat not in ("task", "send", "recv"):
            continue
        lane = per_rank.setdefault(str(e.rank), {
            "task": [], "send": [], "recv": [],
        })
        lane[e.cat].append(e.name)
    for lane in per_rank.values():
        for names in lane.values():
            names.sort()
    return {
        "problem": "GRID12 nd B=8",
        "nprocs": trace.meta.get("nprocs"),
        "mapping": trace.meta.get("mapping"),
        "grid": trace.meta.get("grid"),
        # Only the deterministic categories: idle/comm presence depends
        # on scheduling timing and must not fail the golden comparison.
        "categories": sorted(categories & {"task", "send", "recv"}),
        "per_rank": per_rank,
    }


@pytest.fixture(scope="module")
def golden_run(grid12_pipeline):
    return _run_traced(grid12_pipeline)


def test_skeleton_matches_golden(golden_run):
    res, tg = golden_run
    assert GOLDEN.exists(), (
        f"golden skeleton missing; regenerate with "
        f"PYTHONPATH=src:. python {__file__} --regen"
    )
    want = json.loads(GOLDEN.read_text())
    got = _skeleton(res.trace)
    assert got == want


def test_chrome_export_matches_golden_tasks(golden_run):
    """The Chrome export carries the same deterministic task inventory,
    keyed by (pid=attempt, tid=rank)."""
    res, tg = golden_run
    want = json.loads(GOLDEN.read_text())
    doc = res.trace.to_chrome()
    per_tid: dict[str, list[str]] = {}
    thread_names = set()
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "M" and ev["name"] == "thread_name":
            thread_names.add(ev["args"]["name"])
        if ev.get("ph") == "X" and ev.get("cat") == "task":
            assert ev["pid"] == 0
            per_tid.setdefault(str(ev["tid"]), []).append(ev["name"])
    for names in per_tid.values():
        names.sort()
    assert thread_names == {f"worker {r}" for r in want["per_rank"]}
    assert per_tid == {
        r: lane["task"] for r, lane in want["per_rank"].items()
    }


def test_per_rank_dependency_order(golden_run):
    """Within each worker's recorded order: the local pass comes first;
    the panel updates PMOD(K,J) into one panel come in ascending K and
    before the panel factor PFAC(J) of the rank's share of that panel,
    and after PFAC(K) when that ran on the same rank."""
    res, tg = golden_run
    for rank, events in res.trace.per_worker(0).items():
        spans = [e for e in events if e.cat == "task"]
        position = {e.name: i for i, e in enumerate(spans)}
        last_source: dict[str, int] = {}
        for i, e in enumerate(spans):
            if e.name == "LOCAL":
                assert i == 0, f"w{rank}: local pass at {i}"
                continue
            if _PFAC.match(e.name):
                continue
            kind, K, J = _COORD.match(e.name).group(1, 2, 3)
            assert kind == "PMOD", e.name
            assert int(K) > last_source.get(J, -1), e.name
            last_source[J] = int(K)
            assert i < position[f"PFAC({J})"], f"w{rank}: {e.name} late"
            if f"PFAC({K})" in position:
                assert position[f"PFAC({K})"] < i, f"w{rank}: {e.name} early"


def test_sends_and_recvs_are_disjoint_per_block(golden_run):
    """A rank never receives a block it sent (it owns what it sends), and
    every received block name is sent by exactly one other rank."""
    res, tg = golden_run
    sent: dict[int, set[str]] = {}
    recvd: dict[int, set[str]] = {}
    for e in res.trace.events:
        coords = _COORD.match(e.name)
        if e.cat == "send":
            sent.setdefault(e.rank, set()).add(coords.group(2, 3))
        elif e.cat == "recv" and coords:
            recvd.setdefault(e.rank, set()).add(coords.group(2, 3))
    for rank, blocks in recvd.items():
        assert not (blocks & sent.get(rank, set()))
        for b in blocks:
            senders = [r for r, s in sent.items() if b in s]
            assert len(senders) == 1


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
    res, _ = _run_traced((problem, sf, part, bs, wm, tg))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_skeleton(res.trace), indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
