"""One workload in a fresh interpreter (the child ``bench.run`` spawns).

``python -m bench.session --workload W --seed N --mode endtoend|layers``
prints progress on stderr and, as the last line of stdout, one JSON object
with the workload's metrics and op counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bench import env


def _parse(argv):
    ap = argparse.ArgumentParser(prog="bench.session")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("endtoend", "layers"), required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--started-at", type=float, default=None,
                    help="time.time() at which the parent spawned us")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="test hook: perturb one factor so the gate trips")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started_at = time.time()
    args = _parse(argv)
    if args.started_at is not None:
        started_at = args.started_at
    blas = env.pin_blas_threads()
    ncpu = env.require_cpus()

    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rounds = 2 if args.smoke else workload.rounds(args.seconds)
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "env": {"blas_threads": blas, "affinity_cpus": ncpu},
    }
    if args.mode == "layers":
        from bench.layers import run_layers

        out.update(run_layers(workload, args.seed, args.seconds, args.smoke))
    else:
        from bench.endtoend import EndToEnd

        run = EndToEnd(workload, args.seed, args.smoke, args.corrupt)
        try:
            setup = run.setup(started_at, retake_budget=rounds // 4)
            for i in range(rounds):
                run.round()
                print(f"  {workload.name}: round {i + 1}/{rounds}",
                      file=sys.stderr)
        finally:
            run.close()
        out["rounds"] = rounds
        out["metrics"] = run.metrics(setup)
        out.update(run.ledger.to_dict())
        out["calib"] = {
            "slowdown": run.cal.slowdown,
            "cv": run.cal.cv,
            "samples_retaken": run.cal.samples_retaken,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
