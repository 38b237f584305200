"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info <problem>``
    Print matrix/ordering/symbolic statistics for a benchmark problem.
``factor <problem>``
    Numerically factor a benchmark problem and verify ``L L^T = A``.
``simulate <problem>``
    Simulate the parallel block fan-out under a chosen mapping.
``trace <file>``
    Inspect a structured run trace (written by ``RunTrace.dump``):
    summary, ASCII Gantt chart, replay validation, Chrome trace export.
``serve``
    Run the long-lived factorization service (persistent worker pool,
    pattern cache, admission control) as a TCP server.
``analyze <problem>``
    Report tree structure, critical path and per-node memory.
``experiment <name> --scale S``
    Run one experiment of ``repro.experiments.registry`` (table1..table7,
    figure1, the ablations, ...) and print its table.
``suite --scale S``
    Run every experiment of the registry into ``results/<scale>/``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.config import RunConfig
from repro.experiments.registry import EXPERIMENTS, run_suite
from repro.matrices.registry import REGISTRY


def _positive(text: str) -> int:
    """``-P``'s type: a positive int, else a usage error (exit 2)."""
    P = int(text)
    if P < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {P}")
    return P


def _add_common(p: argparse.ArgumentParser, fn, problem: bool = True) -> None:
    """An offline command: its ``--scale`` and handler ``fn``, and on one
    benchmark ``problem`` its ``--block-size`` (an experiment has its own)."""
    if problem:
        p.add_argument("problem", choices=sorted(REGISTRY))
        RunConfig.add_arguments(p, "block_size")
    p.add_argument("--scale", default="medium",
                   choices=("small", "medium", "paper"))
    p.set_defaults(fn=fn)


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
    from repro.fanout import plan_block_owners, simulate_fanout, task_priorities
    from repro.mapping import named_map

    prep = prepare_problem(args.problem, args.scale, args.block_size)
    tg = prep.taskgraph
    cmap = named_map(prep.workmodel, args.P, args.mapping)
    prio = task_priorities(tg, "column" if args.priority else "fifo")
    res = simulate_fanout(tg, plan_block_owners(tg, cmap), cmap.grid.P,
                          priorities=prio, factor_ops=prep.factor_ops)
    print(f"{prep.name} on {cmap.grid} ({cmap.name}):")
    print(f"  runtime    : {res.t_parallel * 1e3:.2f} ms (simulated)")
    print(f"  efficiency : {res.efficiency:.3f}")
    print(f"  Mflops     : {res.mflops:.1f}")
    print(f"  messages   : {res.comm_messages:,} "
          f"({res.comm_bytes / 1e6:.1f} MB)")
    print(f"  idle       : {res.idle_fraction:.2f}")
    return 0


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
_SERVICE_ONLY = ("queue_capacity", "cache_capacity", "validate")


def _add_service_knobs(p: argparse.ArgumentParser) -> None:
    """The ``serve`` flags: the :class:`RunConfig` fields a service reads,
    then one flag per :data:`_SERVICE_ONLY` keyword."""
    RunConfig.add_arguments(
        p, "nprocs", "ordering", "block_size", "mapping",
        "transport", "schedule", "max_restarts", nprocs=2,
    )
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="admission queue bound")
    p.add_argument("--cache-capacity", type=int, default=8,
                   help="pattern cache entries (LRU beyond this)")
    p.add_argument("--validate", action="store_true",
                   help="check every factor against the sequential "
                        "baseline (bitwise on a 1 x P grid)")


def cmd_serve(args) -> int:
    from repro.service import FactorService, ServiceServer

    service = FactorService(
        args.config, **{name: getattr(args, name) for name in _SERVICE_ONLY}
    ).start()
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
    from repro.fanout import plan_block_owners
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
    owners = plan_block_owners(
        prep.taskgraph, named_map(prep.workmodel, args.P, "ID/CY")
    )
    mem = memory_usage(prep.taskgraph, owners, args.P)
    print(f"  per-node factor storage: max {mem.max_owned / 2**20:.2f} MiB "
          f"(balance {mem.storage_balance:.2f})")
    print(f"  worst-case node memory : {mem.worst_case_bytes / 2**20:.2f} MiB "
          f"({'fits' if mem.fits() else 'EXCEEDS'} a 32 MiB Paragon node)")
    return 0


def cmd_experiment(args) -> int:
    entry = EXPERIMENTS.get(args.name)
    if entry is None:
        print(f"unknown experiment {args.name!r}; known: "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    run, fmt = entry
    print(run(args.scale).render(fmt))
    return 0


def cmd_suite(args) -> int:
    run_suite(args.scale)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rothberg-Schreiber SC'94 reproduction toolkit",
    )
    parser.set_defaults(config_fields=())
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("info", help="problem statistics"), cmd_info)
    _add_common(sub.add_parser(
        "factor", help="numeric factorization + verification"
    ), cmd_factor)

    p = sub.add_parser("simulate", help="parallel fan-out simulation")
    p.add_argument("-P", type=_positive, default=64, help="processor count")
    RunConfig.add_arguments(p, "mapping", mapping="ID/CY")
    p.add_argument("--priority", action="store_true",
                   help="priority scheduling instead of FIFO")
    _add_common(p, cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="inspect a structured run trace (summary, Gantt, replay "
             "validation, Chrome export)",
    )
    p.add_argument("file", help="trace file written by RunTrace.dump")
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
    p.add_argument("-P", type=_positive, default=64, help="processor count")
    _add_common(p, cmd_analyze)

    p = sub.add_parser("experiment", help="run one paper experiment")
    p.add_argument("name", help=", ".join(EXPERIMENTS))
    _add_common(p, cmd_experiment, problem=False)
    _add_common(sub.add_parser("suite", help="run every experiment"),
                cmd_suite, problem=False)
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
