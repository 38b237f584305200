"""Run the benchmark: one command, every metric by name with its unit.

    python3 -m bench.run --seed S --out results.json            # end to end
    python3 -m bench.run --seed S --out results.json --traced   # per layer
    python3 -m bench.run --workload W --seed S --seconds T --trace 0|1

Each workload runs in a fresh interpreter (``bench.session``); after it
exits, the parent asserts that no ``/dev/shm`` segment and no worker process
was left behind. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench import env

ROOT = Path(__file__).resolve().parent.parent
#: A child that has not answered by then is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0
#: ``calib.slowdown`` above this flags the run as noisy.
NOISY_SLOWDOWN = 1.5


def _parse(argv):
    ap = argparse.ArgumentParser(prog="bench.run", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0",
                    help="0: end-to-end pass, 1: per-layer pass")
    ap.add_argument("--traced", action="store_const", const="1", dest="trace",
                    help="same as --trace 1")
    ap.add_argument("--out", help="write the full results to this JSON file")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, two rounds, < 30 s")
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_child(workload: str, mode: str, args, seconds: float) -> dict:
    """One workload process and the post-mortem on what it left behind."""
    before = env.shm_segments()
    cmd = [
        sys.executable, "-m", "bench.session",
        "--workload", workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(seconds),
        "--started-at", repr(time.time()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        crashed = None if proc.returncode == 0 else (
            f"exit code {proc.returncode}"
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        crashed = f"no result within {CHILD_TIMEOUT_S:.0f} s"
    out = {"workload": workload, "metrics": {}, "ops_attempted": 0,
           "ops_failed": 0, "failures": []}
    if crashed is None:
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            crashed = "printed no result"

    def gate(name: str, problem) -> None:
        out["ops_attempted"] += 1
        if problem:
            out["ops_failed"] += 1
            out["failures"].append(f"{name}: {problem}")
            print(f"FAILED {name}: {problem}", file=sys.stderr)

    gate(f"{workload}.process", crashed)
    orphans = env.reap_process_group(proc.pid)
    gate("env.no_orphan_workers",
         f"processes outlived the workload: {orphans}" if orphans else None)
    leaked = env.leaked_segments(before)
    gate("env.no_shm_leak",
         f"left in /dev/shm: {leaked}" if leaked else None)
    slowdown = out.get("calib", {}).get("slowdown") or (
        out["metrics"].get("calib.slowdown", {}).get("value", 0.0)
    )
    out["noisy"] = bool(slowdown > NOISY_SLOWDOWN)
    return out


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _print_metrics(title: str, result: dict) -> None:
    flag = "  [noisy: calib.slowdown > 1.5]" if result.get("noisy") else ""
    print(f"== {title}: {result['ops_attempted']} ops attempted, "
          f"{result['ops_failed']} failed{flag}")
    for name, entry in result["metrics"].items():
        if "value" not in entry:
            print(f"  {name:32s} (no samples)")
            continue
        extra = ""
        if "raw" in entry:
            extra = f"  (raw {entry['raw']:.6g}, n={entry['samples']})"
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']}{extra}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found next to bench/: the benchmark "
              "measures the program in this checkout and cannot run "
              "without it", file=sys.stderr)
        return 2
    blas = env.pin_blas_threads()
    ncpu = env.require_cpus()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    # The parent imports neither numpy nor repro: the workload names come
    # from the spec, which a test pins to bench.workloads.
    WORKLOADS = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{WORKLOADS}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else WORKLOADS
    passes = {"0": ["untraced"], "1": ["traced"],
              "both": ["untraced", "traced"]}[args.trace]

    results = {
        "schema": 1,
        "commit": _commit(),
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "env": {"blas_threads": blas, "affinity_cpus": ncpu},
    }
    attempted = failed = 0
    last_metrics: dict = {}
    for which in passes:
        results[which] = {}
        mode = "endtoend" if which == "untraced" else "layers"
        for name in names:
            res = run_child(name, mode, args, seconds)
            results[which][name] = res
            attempted += res["ops_attempted"]
            failed += res["ops_failed"]
            last_metrics = res["metrics"]
            _print_metrics(f"{name} ({which})", res)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    complete = all("value" in entry for entry in last_metrics.values())
    summary = {
        "correct": failed == 0 and complete and bool(last_metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        # With one workload and one pass this is the contract's result
        # line; with several it carries the last workload's metrics and
        # the full set is in --out.
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in last_metrics.items() if "value" in entry
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
