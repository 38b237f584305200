"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info <problem>``
    Print matrix/ordering/symbolic statistics for a benchmark problem.
``factor <problem>``
    Numerically factor a benchmark problem and verify ``L L^T = A``.
``simulate <problem>``
    Simulate the parallel block fan-out under a chosen mapping.
``bench-real <problem>``
    Execute the real multiprocess message-passing runtime and report the
    measured per-worker busy/idle/comm breakdown and load balance.
``trace <file>``
    Inspect a structured run trace (written by ``bench-real --trace-out``):
    summary, ASCII Gantt chart, replay validation, Chrome trace export.
``serve``
    Run the long-lived factorization service (persistent worker pool,
    pattern cache, admission control) as a TCP server.
``analyze <problem>``
    Report tree structure, critical path and per-node memory.
``experiment <name>``
    Run one paper experiment (table1..table7, figure1, prime_grids, ...).
``suite``
    Run every experiment at the chosen scale (same as
    ``scripts/run_all_experiments.py``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.blocks import BLOCK_POLICIES
from repro.config import SCHEDULES, RunConfig
from repro.mapping import mapping_heuristics


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", default="medium",
                   choices=("small", "medium", "paper"))
    RunConfig.add_arguments(p, "block_size")


def cmd_info(args) -> int:
    from repro.experiments.pipeline import prepare_problem

    prep = prepare_problem(args.problem, args.scale, args.block_size)
    sf, part = prep.symbolic, prep.partition
    wm = prep.workmodel
    print(f"problem      : {prep.name} (scale={args.scale})")
    print(f"equations    : {prep.problem.n:,}")
    print(f"nnz(A)       : {prep.problem.nnz:,}")
    print(f"ordering     : {prep.problem.recommended_ordering}")
    print(f"nnz(L)       : {sf.factor_nnz:,}")
    print(f"factor ops   : {sf.factor_ops / 1e6:,.1f} M")
    print(f"supernodes   : {sf.nsupernodes:,}")
    print(f"panels (B={args.block_size}): {part.npanels:,}")
    print(f"blocks       : {prep.structure.num_blocks:,}")
    print(f"block ops    : {wm.total_ops:,}")
    return 0


def cmd_factor(args) -> int:
    from repro.experiments.pipeline import prepare_problem
    from repro.numeric import BlockCholesky, solve_with_factor

    prep = prepare_problem(args.problem, args.scale, args.block_size)
    bc = BlockCholesky(prep.structure, prep.symbolic.A).factor()
    L = bc.to_csc()
    resid = abs(L @ L.T - prep.symbolic.A).max()
    print(f"factored {prep.name}: |L L^T - A|_max = {resid:.3e}")
    b = np.ones(prep.problem.n)
    x = solve_with_factor(L, b, prep.symbolic.ordering)
    sres = np.max(np.abs(prep.problem.A @ x - b))
    print(f"solve residual |Ax - b|_max = {sres:.3e}")
    return 0 if resid < 1e-6 else 1


def cmd_simulate(args) -> int:
    from repro.experiments.pipeline import prepare_problem
    from repro.fanout import assign_domains, run_fanout
    from repro.mapping import named_map

    prep = prepare_problem(args.problem, args.scale, args.block_size)
    wm = prep.workmodel
    cmap = named_map(wm, args.P, args.mapping)
    grid = cmap.grid
    domains = assign_domains(wm, grid.P) if not args.no_domains else None
    res = run_fanout(
        prep.taskgraph, cmap, domains=domains,
        priority_mode=args.priority, factor_ops=prep.factor_ops,
    )
    print(f"{prep.name} on {grid} ({cmap.name}):")
    print(f"  runtime    : {res.t_parallel * 1e3:.2f} ms (simulated)")
    print(f"  efficiency : {res.efficiency:.3f}")
    print(f"  Mflops     : {res.mflops:.1f}")
    print(f"  messages   : {res.comm_messages:,} "
          f"({res.comm_bytes / 1e6:.1f} MB)")
    print(f"  idle       : {res.idle_fraction:.2f}")
    return 0


def _usable_cpus() -> int | None:
    """CPUs this process may actually run on (affinity beats count)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count()


def _oversub_note(nprocs: int, usable: int | None) -> str | None:
    """The oversubscription warning, or None when the run is honest.

    Printed at *every* place a timing is reported — not just once at
    startup — so a grepped or truncated log can never show a wall clock
    without its caveat."""
    if usable is None or nprocs <= usable:
        return None
    return (f"WARNING: {nprocs} workers on {usable} affinity-visible "
            f"CPUs — oversubscribed wall clocks measure time-sliced "
            f"execution, not parallel speedup")


def cmd_bench_real(args) -> int:
    import json

    from repro.analysis.comm_volume import (
        communication_volume,
        solve_communication_volume,
    )
    from repro.experiments.pipeline import prepare_problem
    from repro.runtime import (
        plan_owners,
        run_mp_fanout,
        shm_available,
        validate_runtime,
    )

    cfg = args.config
    if cfg.transport == "shm" and not shm_available():
        # Smoke runs on platforms without POSIX shared memory skip
        # gracefully instead of failing the whole invocation.
        print("transport=shm requested but shared memory is unavailable "
              "on this platform; skipping")
        return 0
    oversub = _oversub_note(cfg.nprocs, _usable_cpus())
    if oversub is not None:
        # Same honesty policy as the benchmark (bench/README.md):
        # oversubscribed wall clocks measure time-slicing, not speedup.
        print(oversub, file=sys.stderr)
    phase = args.phase
    prep = prepare_problem(args.problem, args.scale, cfg.block_size)
    rhs = None
    if phase in ("solve", "both"):
        if args.nrhs < 1:
            print("--nrhs must be positive", file=sys.stderr)
            return 2
        rng = np.random.default_rng(args.rhs_seed)
        rhs = rng.standard_normal(
            (prep.symbolic.A.shape[0], args.nrhs)
        )
    mappings = args.mappings
    schedules = SCHEDULES if args.schedule == "both" else [args.schedule]
    bpolicies = (
        BLOCK_POLICIES if args.block_policy == "both"
        else [args.block_policy]
    )
    runs = {}
    resids = {}
    invalid = False
    multi = len(mappings) * len(schedules) * len(bpolicies) > 1
    for bpolicy in bpolicies:
        prep = prepare_problem(
            args.problem, args.scale, cfg.block_size, block_policy=bpolicy,
        )
        for mapping in mappings:
            owners, name = plan_owners(
                prep.workmodel, prep.taskgraph, cfg.nprocs, mapping,
                cfg.use_domains,
            )
            for schedule in schedules:
                res = run_mp_fanout(
                    prep.structure, prep.symbolic.A, prep.taskgraph, owners,
                    cfg.nprocs, cfg, mapping=name, rhs=rhs,
                    schedule=schedule, block_policy=bpolicy,
                    trace=bool(args.trace_out),
                )
                met = res.metrics
                met.problem = prep.name
                label = (
                    mapping if len(schedules) == 1
                    else f"{mapping}:{schedule}"
                )
                if len(bpolicies) > 1:
                    label = f"{label}@{bpolicy}"
                runs[label] = res
                predicted = communication_volume(prep.taskgraph, owners)
                L = res.to_csc()
                resid = abs(L @ L.T - prep.symbolic.A).max()
                resids[label] = float(resid)
                print(f"{prep.name} on {cfg.nprocs} workers ({name}, "
                      f"schedule={schedule}, block_policy={bpolicy}):")
                if oversub is not None:
                    print(f"  {oversub}")
                print(f"  wall clock      : {met.wall_s * 1e3:.1f} ms "
                      f"(factor{'+solve' if rhs is not None else ''})")
                if phase in ("factor", "both"):
                    print(f"  |L L^T - A|_max : {resid:.3e}")
                    print(f"  balance         : measured "
                          f"{met.measured_balance:.3f} "
                          f"(busy time), work {met.work_balance:.3f}")
                    print(f"  imbalance       : max/mean busy "
                          f"{met.imbalance:.3f}, work {met.work_imbalance:.3f}")
                    print(f"  messages        : {met.messages_total} measured /"
                          f" {predicted.messages} predicted "
                          f"({met.bytes_total / 1e6:.2f} MB)")
                    print(f"  transport       : {met.transport} "
                          f"({met.wire_bytes_total / 1e6:.2f} MB transported)")
                if rhs is not None:
                    spred = solve_communication_volume(
                        prep.taskgraph, owners, nrhs=args.nrhs
                    )
                    sresid = float(
                        np.max(np.abs(prep.symbolic.A @ res.solution - rhs))
                    )
                    busy = sum(w.solve_busy_s for w in met.workers)
                    comm = sum(w.solve_comm_s for w in met.workers)
                    print(f"  solve ({args.nrhs} rhs) : "
                          f"|A x - b|_max {sresid:.3e} (permuted system)")
                    print(f"  solve time      : busy {busy * 1e3:.1f} ms, "
                          f"comm {comm * 1e3:.1f} ms across workers")
                    print(f"  solve messages  : {met.solve_messages_total} "
                          f"measured / {spred.messages} predicted "
                          f"({met.solve_bytes_total / 1e3:.1f} kB)")
                if schedule == "dynamic":
                    print(f"  stealing        : {met.tasks_stolen_total} "
                          f"migrations / {met.steal_reqs_total} requests "
                          f"({met.steal_bytes_total / 1e3:.1f} kB steal "
                          f"traffic); idle {met.idle_total_s * 1e3:.1f} ms")
                print("  per-worker breakdown:")
                print("    " + met.render().replace("\n", "\n    "))
                if args.validate:
                    rep = validate_runtime(
                        prep.structure, prep.symbolic.A, prep.taskgraph,
                        problem=prep.name, result=res, strict=False,
                    )
                    print("  " + rep.summary().replace("\n", "\n  "))
                    # The failing run's artifacts are the ones worth
                    # keeping: fail after the trace and JSON are written.
                    invalid = invalid or not rep.ok
                if args.trace_out and res.trace is not None:
                    path = _trace_path(args.trace_out, label, multi)
                    res.trace.meta["problem"] = prep.name
                    res.trace.dump(path)
                    print(f"  trace ({len(res.trace.events)} events) written "
                          f"to {path}")
                print()
    if len(runs) > 1:
        print("mapping comparison (work imbalance, lower is better; "
              "labels are mapping[:schedule][@block_policy]):")
        if oversub is not None:
            print(f"  {oversub}")
        for label, res in sorted(
            runs.items(), key=lambda kv: kv[1].metrics.work_imbalance
        ):
            met = res.metrics
            print(f"  {label:<28s} work_imbalance="
                  f"{met.work_imbalance:.3f} "
                  f"measured_balance={met.measured_balance:.3f} "
                  f"resid={resids[label]:.2e} "
                  f"wall={met.wall_s * 1e3:.1f} ms")
    if len(schedules) == 2:
        print("schedule comparison (dynamic vs static):")
        if oversub is not None:
            print(f"  {oversub}")
        for mapping in mappings:
            for bpolicy in bpolicies:
                suffix = f"@{bpolicy}" if len(bpolicies) > 1 else ""
                st = runs.get(f"{mapping}:static{suffix}")
                dy = runs.get(f"{mapping}:dynamic{suffix}")
                if st is None or dy is None:
                    continue
                same = (abs(dy.to_csc() - st.to_csc()).max() == 0.0)
                invalid = invalid or not same
                sm, dm = st.metrics, dy.metrics
                print(f"  {mapping + suffix:<20s} "
                      f"idle {dm.idle_total_s * 1e3:.1f} ms "
                      f"vs {sm.idle_total_s * 1e3:.1f} ms static, "
                      f"wall {dm.wall_s * 1e3:.1f} vs "
                      f"{sm.wall_s * 1e3:.1f} ms, "
                      f"{dm.tasks_stolen_total} migrations, factors "
                      f"{'bitwise identical' if same else 'DIFFER'}")
    if args.json:
        payload = {m: r.metrics.to_dict() for m, r in runs.items()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"metrics written to {args.json}")
    return 1 if invalid else 0


def _trace_path(base: str, mapping: str, multi: bool) -> str:
    """Output path for one mapping's trace; with several mappings a
    filesystem-safe mapping slug is inserted before the extension."""
    if not multi:
        return base
    slug = mapping.replace("/", "-").replace(":", ".").lower()
    root, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}.{slug}"
    return f"{root}.{slug}.{ext}"


def cmd_trace(args) -> int:
    from repro.analysis.trace_replay import validate_trace
    from repro.runtime.trace import RunTrace

    trace = RunTrace.load(args.file)
    print(trace.summary())
    if args.gantt:
        print()
        print(trace.gantt(width=args.width))
    if args.validate:
        rep = validate_trace(trace)
        print()
        print(rep.summary())
        if not rep.ok:
            return 1
    if args.chrome:
        trace.dump_chrome(args.chrome)
        print(f"\nChrome trace written to {args.chrome} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


#: ``FactorService`` keywords that are not :class:`RunConfig` fields; each
#: is a flag of ``serve`` whose ``dest`` is the keyword.
_SERVICE_ONLY = (
    "queue_capacity", "cache_capacity", "validate", "default_deadline_s",
    "breaker_threshold", "breaker_cooldown_s",
)


def _service_only(args) -> dict:
    return {name: getattr(args, name) for name in _SERVICE_ONLY}


def _add_service_knobs(p: argparse.ArgumentParser) -> None:
    """The ``serve`` flags: the :class:`RunConfig` fields a service reads,
    then one flag per :data:`_SERVICE_ONLY` keyword."""
    RunConfig.add_arguments(
        p, "nprocs", "ordering", "block_size", "block_policy", "mapping",
        "transport", "schedule", "steal_seed", "max_restarts", nprocs=2,
    )
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="admission queue bound")
    p.add_argument("--cache-capacity", type=int, default=8,
                   help="pattern cache entries (LRU beyond this)")
    p.add_argument("--validate", action="store_true",
                   help="check every factor against the sequential "
                        "baseline (bitwise on a 1 x P grid)")
    p.add_argument("--deadline", dest="default_deadline_s", type=float,
                   default=None, metavar="S",
                   help="default per-job deadline in seconds "
                        "(None = unbounded)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive pool failures that trip the "
                        "circuit breaker (0 disables)")
    p.add_argument("--breaker-cooldown", dest="breaker_cooldown_s",
                   type=float, default=5.0, metavar="S",
                   help="seconds the breaker stays open before the "
                        "half-open probe")


def cmd_serve(args) -> int:
    from repro.service import FactorService, ServiceServer

    service = FactorService(args.config, **_service_only(args)).start()
    server = ServiceServer(service, host=args.host, port=args.port)
    host, port = server.address
    print(f"repro service listening on {host}:{port} "
          f"(nprocs={service.nprocs}, transport={service.transport}, "
          f"queue={args.queue_capacity})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.close()
        service.close()
        print("service stopped:", service.metrics.render(), sep="\n")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import (
        critical_path,
        memory_usage,
        tree_statistics,
        work_by_depth,
    )
    from repro.experiments.pipeline import prepare_problem
    from repro.fanout import assign_domains, block_owners
    from repro.mapping import named_map

    prep = prepare_problem(args.problem, args.scale, args.block_size)
    stats = tree_statistics(prep.symbolic, args.block_size)
    print(f"structure of {prep.name}:")
    for label, value in stats.as_rows():
        print(f"  {label:<22s}: {value}")
    w = work_by_depth(prep.symbolic, nbins=5)
    print("  work by depth quintile :", " ".join(f"{x:.2f}" for x in w))
    cp = critical_path(prep.taskgraph)
    print(f"  critical path          : {cp.length_seconds * 1e3:.2f} ms "
          f"(max speedup {cp.max_speedup:.1f}x)")
    owners = block_owners(
        prep.taskgraph,
        named_map(prep.workmodel, args.P, "ID/CY"),
        assign_domains(prep.workmodel, args.P),
    )
    mem = memory_usage(prep.taskgraph, owners, args.P)
    print(f"  per-node factor storage: max {mem.max_owned / 2**20:.2f} MiB "
          f"(balance {mem.storage_balance:.2f})")
    print(f"  worst-case node memory : {mem.worst_case_bytes / 2**20:.2f} MiB "
          f"({'fits' if mem.fits() else 'EXCEEDS'} a 32 MiB Paragon node)")
    return 0


_EXPERIMENTS = {
    "table1": ("repro.experiments.table1", "run", "{:.1f}"),
    "table2": ("repro.experiments.table2", "run", "{:.2f}"),
    "table3": ("repro.experiments.table3", "run", "{:.2f}"),
    "table4": ("repro.experiments.table4", "run", "{:.0f}"),
    "table5": ("repro.experiments.table5", "run", "{:.0f}"),
    "table6": ("repro.experiments.table6", "run", "{:.1f}"),
    "table7": ("repro.experiments.table7", "run", "{:.0f}"),
    "figure1": ("repro.experiments.figure1", "run", "{:.3f}"),
    "prime_grids": ("repro.experiments.prime_grids", "run", "{:.0f}"),
    "alt_heuristic": ("repro.experiments.alt_heuristic", "run", "{:.2f}"),
    "variable_block": ("repro.experiments.variable_block", "run", "{:.2f}"),
    "dense_study": ("repro.experiments.dense_study", "run", "{:.0f}"),
    "critical_path": ("repro.experiments.discussion", "run_critical_path", "{:.3f}"),
    "subcube": ("repro.experiments.discussion", "run_subcube", "{:.2f}"),
    "priority": ("repro.experiments.discussion", "run_priority_scheduling", "{:.1f}"),
}


def cmd_experiment(args) -> int:
    import importlib

    spec = _EXPERIMENTS.get(args.name)
    if spec is None:
        print(f"unknown experiment {args.name!r}; known: "
              f"{', '.join(sorted(_EXPERIMENTS))}", file=sys.stderr)
        return 2
    module, fn, fmt = spec
    run = getattr(importlib.import_module(module), fn)
    print(run(args.scale).render(fmt))
    return 0


def cmd_suite(args) -> int:
    import subprocess
    from pathlib import Path

    # The script lives in the source checkout, not in an installed package.
    script = Path(__file__).parents[2] / "scripts/run_all_experiments.py"
    if not script.is_file():
        print(f"repro suite: {script} not found", file=sys.stderr)
        return 2
    return subprocess.call([sys.executable, str(script), args.scale])


def _mappings(text: str) -> list[str]:
    """``--mappings``: comma-separated mapping names, each checked."""
    names = [m.strip() for m in text.split(",") if m.strip()]
    for name in names:
        mapping_heuristics(name)
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rothberg-Schreiber SC'94 reproduction toolkit",
    )
    parser.set_defaults(config_fields=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="problem statistics")
    p.add_argument("problem")
    _add_common(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("factor", help="numeric factorization + verification")
    p.add_argument("problem")
    _add_common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("simulate", help="parallel fan-out simulation")
    p.add_argument("problem")
    p.add_argument("-P", type=int, default=64, help="processor count")
    p.add_argument("--mapping", default="ID/CY",
                   help='"cyclic" or "<row>/<col>" heuristic pair, e.g. ID/CY')
    p.add_argument("--no-domains", action="store_true")
    p.add_argument("--priority", action="store_true",
                   help="priority scheduling instead of FIFO")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "bench-real",
        help="execute the real multiprocess runtime and report per-worker "
             "metrics",
    )
    p.add_argument("problem")
    RunConfig.add_arguments(
        p, "nprocs", "use_domains", "transport", "steal_seed", "timeout_s",
        "stall_timeout_s",
    )
    # The three sweep axes: a list, or 'both', of a RunConfig field each.
    p.add_argument("--mappings", type=_mappings, default="cyclic,DW/CY",
                   help="comma-separated mappings to execute and compare")
    p.add_argument("--schedule", default="static",
                   choices=(*SCHEDULES, "both"),
                   help="execution schedule: the static owner-computes "
                        "map, dynamic work stealing, or 'both' to run "
                        "each mapping under both (exit 1 if factors differ)")
    p.add_argument("--block-policy", default="uniform",
                   choices=(*BLOCK_POLICIES, "both"),
                   help="panel blocking policy: fixed-width panels, "
                        "structure-aware supernodal panels, or 'both' to "
                        "run and compare side by side")
    p.add_argument("--validate", action="store_true",
                   help="also check numerics/messages/work against the "
                        "models")
    p.add_argument("--phase", default="factor",
                   choices=("factor", "solve", "both"),
                   help="run and report the factorization, the "
                        "distributed triangular solve (factor runs too — "
                        "the solve needs it — but reporting focuses on "
                        "the solve), or both")
    p.add_argument("--nrhs", type=int, default=1,
                   help="right-hand sides in the solve panel "
                        "(--phase solve|both)")
    p.add_argument("--rhs-seed", type=int, default=0,
                   help="seed for the random solve right-hand sides")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write per-mapping metrics JSON to PATH")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record a structured event trace and write it to "
                        "PATH (one file per mapping; inspect with "
                        "'repro trace')")
    _add_common(p)
    p.set_defaults(fn=cmd_bench_real)

    p = sub.add_parser(
        "trace",
        help="inspect a structured run trace (summary, Gantt, replay "
             "validation, Chrome export)",
    )
    p.add_argument("file", help="trace file written by bench-real --trace-out")
    p.add_argument("--gantt", action="store_true",
                   help="render the ASCII Gantt chart")
    p.add_argument("--width", type=int, default=72,
                   help="Gantt chart width in characters")
    p.add_argument("--validate", action="store_true",
                   help="replay the trace and check its internal invariants")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="also export Chrome trace_event JSON to PATH")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="run the long-lived factorization service as a TCP server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks a free one, printed at startup)")
    _add_service_knobs(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("analyze", help="structure/memory/critical-path report")
    p.add_argument("problem")
    p.add_argument("-P", type=int, default=64)
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("experiment", help="run one paper experiment")
    p.add_argument("name", help=", ".join(sorted(_EXPERIMENTS)))
    _add_common(p)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("suite", help="run every experiment")
    _add_common(p)
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config = RunConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
