"""End to end: the real command on tiny inputs, both passes, and the gate
catching a deliberately corrupted factor."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run(*extra, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "bench.run", "--seed", "7", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_emits_every_metric_and_no_failed_op(tmp_path):
    out = tmp_path / "results.json"
    proc = _run("--trace", "both", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(out) as fh:
        results = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    for which, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
        assert sorted(results[which]) == sorted(workloads)
        for name in workloads:
            res = results[which][name]
            assert res["ops_failed"] == 0, res["failures"]
            assert res["ops_attempted"] > 0
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: e["unit"] for n, e in res["metrics"].items()}
            assert got == want
            assert all("value" in e for e in res["metrics"].values())
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_a_corrupted_factor_is_counted_and_fails_the_command():
    proc = _run("--workload", "grid2d", "--corrupt")
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
    assert "FAILED mp_factor" in proc.stderr
