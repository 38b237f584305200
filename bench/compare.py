"""Compare result files of ``bench.run --out``.

    python3 -m bench.compare A.json B.json
    python3 -m bench.compare A1.json,A2.json,A3.json B1.json,B2.json,B3.json

Each side is one run or a comma-separated list of runs of one commit. For
every workload x end-to-end metric prints ``improved`` / ``unchanged`` /
``regressed`` / ``unresolved`` against the bounds in ``BENCHMARK.json``, each
ratio with its base, and lists per-layer counts that differ. Exits non-zero
on any regression or any rise in ``ops_failed / ops_attempted``.

A verdict needs the medians to be resolved: when twice their combined
standard error exceeds the bound, or a run was flagged noisy, the row reads
``unresolved``. With three or more runs on a side the error comes from the
spread between the runs. With fewer it comes from the samples inside the
run plus ``RUN_TO_RUN_NOISE``, because two processes of one commit differ
by more than the samples inside either show (allocator and placement luck
that only several processes average out) - so one pair of runs seldom
resolves the tightest bounds, and says so.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that must repeat exactly between runs of one commit.
EXACT_PREFIXES = ("symbolic.", "sim.efficiency_")
EXACT_NAMES = (
    "runtime.messages", "runtime.bytes", "runtime.wire_bytes",
    "runtime.solve_messages", "runtime.solve_bytes", "fanout.ntasks",
    "blocks.npanels", "blocks.median_tile_mn",
)


def is_exact(name: str) -> bool:
    return (
        name.endswith("py_calls")
        or name in EXACT_NAMES
        or (name.startswith(EXACT_PREFIXES) and not name.endswith("_s"))
    )


#: Quartile distance (share of the median) between single runs of one
#: commit on the reference box, sequential metrics, worst of the recorded
#: 10-seed sets.
RUN_TO_RUN_NOISE = 0.05


def _se_of_median(iqr: float, n: int, value: float) -> float:
    """Relative standard error of a median of ``n`` samples whose quartiles
    are ``iqr`` apart (sigma ~ IQR / 1.349; se ~ 1.2533 sigma / sqrt(n))."""
    if not iqr or not value or n < 2:
        return 0.0
    return 1.2533 * (iqr / 1.349) / math.sqrt(n) / value


def side_estimate(entries: list) -> tuple:
    """``(value, relative standard error)`` of one metric over one side's
    runs (each entry is that metric's dict in one run)."""
    values = [e["value"] for e in entries]
    value = median(values)
    if len(values) >= 3:
        q = quantiles(values, n=4)
        return value, _se_of_median(q[2] - q[0], len(values), value)
    if "iqr" not in entries[0]:
        return value, 0.0  # a single reading (set-up, memory)
    within = max(
        _se_of_median(e.get("iqr", 0.0), e.get("samples", 1), e["value"])
        for e in entries
    )
    floor = RUN_TO_RUN_NOISE / 1.349  # sigma of one run's value
    return value, math.hypot(within, floor) / math.sqrt(len(values))


def verdict(base: tuple, new: tuple, bound: float, better: str,
            noisy: bool) -> tuple:
    """``(label, ratio)`` for one metric from two ``side_estimate`` results;
    ratio is new / base."""
    ratio = new[0] / base[0]
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if noisy or 2.0 * math.hypot(base[1], new[1]) > bound:
        return "unresolved", ratio
    if worse > bound:
        return "regressed", ratio
    if worse < -bound:
        return "improved", ratio
    return "unchanged", ratio


def compare(a: list, b: list, spec: dict, out=sys.stdout) -> int:
    """Print the comparison of the runs ``a`` (base) and ``b``; returns the
    process exit code."""
    bad = 0
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    def label(runs):
        return (f"commit {runs[0].get('commit')} seed "
                f"{','.join(str(r.get('seed')) for r in runs)}")

    def workloads(which):
        return sorted(set.intersection(
            *(set(r.get(which, {})) for r in a + b)
        ))

    print(f"base: {label(a)}    new: {label(b)}", file=out)
    for wl in workloads("untraced"):
        ra = [r["untraced"][wl] for r in a]
        rb = [r["untraced"][wl] for r in b]
        noisy = any(r.get("noisy") for r in ra + rb)
        for name, m in metrics.items():
            ea = [r["metrics"].get(name, {}) for r in ra]
            eb = [r["metrics"].get(name, {}) for r in rb]
            if not all("value" in e for e in ea + eb):
                print(f"{wl:10s} {name:22s} missing", file=out)
                bad = 1
                continue
            base, new = side_estimate(ea), side_estimate(eb)
            verdict_, ratio = verdict(base, new, m["bound"], m["better"], noisy)
            if verdict_ == "regressed":
                bad = 1
            print(f"{wl:10s} {name:22s} {verdict_:10s} "
                  f"{new[0]:.5g} / {base[0]:.5g} {m['unit']} "
                  f"= {ratio:.3f} (bound {m['bound']:.2f})", file=out)

        def failed(runs):
            return (sum(r["ops_failed"] for r in runs),
                    sum(r["ops_attempted"] for r in runs))

        (fa, na), (fb, nb) = failed(ra), failed(rb)
        rose = fb / max(nb, 1) > fa / max(na, 1)
        bad |= rose
        print(f"{wl:10s} {'ops_failed/attempted':22s} "
              f"{'ROSE' if rose else 'ok':10s} {fb}/{nb} vs {fa}/{na}",
              file=out)
    for wl in workloads("traced"):
        ma = a[0]["traced"][wl]["metrics"]
        differ = [
            f"{name} {run['traced'][wl]['metrics'][name]['value']} "
            f"vs {ma[name]['value']}"
            for run in a[1:] + b
            for name in ma
            if is_exact(name) and name in run["traced"][wl]["metrics"]
            and run["traced"][wl]["metrics"][name]["value"] != ma[name]["value"]
        ]
        print(f"{wl:10s} exact per-layer counts: "
              + ("identical" if not differ else "DIFFER: " + "; ".join(differ)),
              file=out)
    return int(bad)


def _load(arg: str) -> list:
    runs = []
    for path in arg.split(","):
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(_load(argv[0]), _load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
