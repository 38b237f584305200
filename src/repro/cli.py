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
``chaos <problem>``
    Sweep deterministic fault-injection scenarios (crash, drop, duplicate,
    corrupt, delay, slow) over the runtime and assert that every run
    either recovers to the sequential factor or degrades cleanly to the
    sequential backend with a populated failure report.
``trace <file>``
    Inspect a structured run trace (written by ``bench-real --trace-out``):
    summary, ASCII Gantt chart, replay validation, Chrome trace export.
``serve``
    Run the long-lived factorization service (persistent worker pool,
    pattern cache, admission control) as a TCP server.
``chaos-service``
    Seeded fault matrix over the *service* layer: worker kills (hard and
    soft), per-job deadlines, and the circuit breaker — asserting every
    job completes bitwise-identically to the fault-free run or raises a
    typed error within its deadline, with no leaked shm segments.
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

    import numpy as np

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


#: Scenario sweep run by ``repro chaos --faults all``.
_CHAOS_SWEEP = (
    "none", "crash", "drop", "duplicate", "corrupt", "delay", "slow",
)


def cmd_chaos(args) -> int:
    import json
    from dataclasses import replace

    from repro.experiments.pipeline import prepare_problem
    from repro.numeric import BlockCholesky
    from repro.runtime.faults import FaultPlan
    from repro.runtime.recovery import run_with_recovery

    # Fast renegotiation for the small chaos problems.
    cfg = replace(
        args.config, renegotiate_base_s=0.05, renegotiate_cap_s=0.5,
        max_renegotiations=6,
    )
    prep = prepare_problem(
        args.problem, args.scale, cfg.block_size,
        block_policy=cfg.block_policy,
    )
    A = prep.symbolic.A
    seq = BlockCholesky(prep.structure, A).factor().to_csc()
    names = (
        list(_CHAOS_SWEEP) if args.faults == "all"
        else [f.strip() for f in args.faults.split(",") if f.strip()]
    )
    procs = [int(p) for p in args.procs.split(",") if p.strip()]
    failures = 0
    payload = {}
    print(f"chaos sweep on {prep.name} (seed={args.seed}, "
          f"rate={args.rate}, schedule={cfg.schedule}, "
          f"block_policy={cfg.block_policy}, "
          f"scenarios={len(names)} x P={procs})")
    for P in procs:
        for name in names:
            plan = FaultPlan.scenario(
                name, seed=args.seed, rate=args.rate, rank=min(1, P - 1),
            )
            res = run_with_recovery(
                prep.structure, A, prep.taskgraph, cfg, nprocs=P,
                fault_plan=plan,
            )
            rep = res.failure_report
            L = res.to_csc()
            diff = float(abs(L - seq).max())
            resid = float(abs(L @ L.T - A).max())
            ok = diff < 1e-8 and (rep.ok or rep.degraded)
            if name == "none":
                # A fault-free sweep entry must stay pristine: no faults
                # fired, no recovery machinery engaged, no restarts.
                ok = ok and rep.outcome == "clean" and \
                    rep.recovery_events == 0 and not rep.faults_injected
            failures += 0 if ok else 1
            status = "ok" if ok else "FAIL"
            print(f"  [{status}] P={P} fault={name:<10s} "
                  f"outcome={rep.outcome:<20s} restarts={rep.restarts} "
                  f"|dL|={diff:.1e} resid={resid:.1e} "
                  f"events={rep.recovery_events} "
                  f"injected={sum(rep.faults_injected.values())}")
            if args.verbose and rep.attempts:
                print("    " + rep.summary().replace("\n", "\n    "))
            payload[f"P{P}:{name}"] = {
                "ok": ok,
                "factor_diff": diff,
                "residual": resid,
                "report": rep.to_dict(),
            }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"chaos report written to {args.json}")
    print(f"chaos sweep: {len(payload) - failures}/{len(payload)} scenarios "
          f"{'ok' if failures == 0 else 'ok, ' + str(failures) + ' FAILED'}")
    return 0 if failures == 0 else 1


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


#: Scenario matrix run by ``repro chaos-service --scenarios all``.
_SERVICE_CHAOS = (
    "none", "worker-kill", "worker-crash", "deadline", "breaker",
)

#: Wall-clock slack allowed past a job's deadline before the run counts
#: as a client hang (scheduler jitter, queue polling).
_DEADLINE_SLACK_S = 5.0


def cmd_chaos_service(args) -> int:
    """Seeded fault matrix over the *service* layer.

    Every scenario drives the same deterministic job stream through a
    fresh :class:`~repro.service.FactorService` and asserts the
    acceptance bar for self-healing: every submitted job completes
    (recovered or sequential-fallback, tagged in its record) or raises a
    typed error within its deadline, completed factors are
    bitwise-identical to the fault-free run, no shm segments leak, and
    no client ever hangs.
    """
    import glob
    import json
    import time as time_mod
    from dataclasses import replace

    from repro.matrices import grid2d_matrix
    from repro.runtime.faults import FaultPlan
    from repro.service import FactorService
    from repro.service.jobs import DeadlineExceeded, ServiceError

    names = (
        list(_SERVICE_CHAOS) if args.scenarios == "all"
        else [s.strip() for s in args.scenarios.split(",") if s.strip()]
    )
    # The fault-free run is always first: it produces the reference
    # factors every other scenario is compared against bitwise.
    if "none" in names:
        names.remove("none")
    names.insert(0, "none")

    rng = np.random.default_rng(args.seed)
    base = [
        grid2d_matrix(args.n + i).A.tocsc() for i in range(args.patterns)
    ]
    # Job i: fresh SPD values on pattern i % patterns (A SPD, so A plus a
    # positive diagonal shift is SPD).
    matrices = []
    for i in range(args.jobs):
        M = base[i % args.patterns].copy()
        M.setdiag(M.diagonal() + float(rng.uniform(0.1, 2.0)))
        matrices.append(M.tocsc())
    fault_at = args.fault_at if args.fault_at >= 0 else args.jobs // 2
    cfg = replace(args.config, ordering="nd")
    crash_rank = min(1, cfg.nprocs - 1)
    shm_before = set(glob.glob("/dev/shm/psm_*"))
    reference: dict[int, tuple] = {}
    payload: dict[str, dict] = {}
    failures = 0
    print(f"service chaos matrix: jobs={args.jobs} "
          f"patterns={args.patterns} P={cfg.nprocs} "
          f"transport={cfg.transport} "
          f"block_policy={cfg.block_policy} "
          f"seed={args.seed} fault_at={fault_at}")
    for name in names:
        svc_kw: dict = {}
        deadlines: dict[int, float] = {}
        if name == "worker-kill":
            # Hard crash: os._exit mid-job, the SIGKILL/segfault
            # stand-in — the pool must heal on P - f workers.
            svc_kw["fault_plan"] = FaultPlan.scenario(
                "crash-hard", seed=args.seed, rank=crash_rank,
                after_tasks=1,
            )
            svc_kw["fault_jobs"] = (fault_at,)
        elif name == "worker-crash":
            # Soft crash: the worker errors and ABORTs its job; the
            # pool survives, the job is retried without the plan.
            svc_kw["fault_plan"] = FaultPlan.scenario(
                "crash", seed=args.seed, rank=crash_rank, after_tasks=1,
            )
            svc_kw["fault_jobs"] = (fault_at,)
        elif name == "deadline":
            # Every odd job gets an unmeetable budget: it must raise
            # the typed DeadlineExceeded by its deadline; even jobs
            # must complete untouched between them.
            deadlines = {i: 5e-4 for i in range(1, args.jobs, 2)}
        elif name == "breaker":
            # First job kills the pool; threshold 1 trips the breaker,
            # the rest of the stream runs degraded-sequential; after
            # the cooldown a probe job half-opens and closes it again.
            svc_kw["fault_plan"] = FaultPlan.scenario(
                "crash-hard", seed=args.seed, rank=crash_rank,
                after_tasks=1,
            )
            svc_kw["fault_jobs"] = (0,)
            svc_kw["breaker_threshold"] = 1
            svc_kw["breaker_cooldown_s"] = 1.0
        elif name != "none":
            print(f"unknown scenario {name!r}; known: "
                  f"{', '.join(_SERVICE_CHAOS)}", file=sys.stderr)
            return 2
        problems: list[str] = []
        results: dict[int, object] = {}
        typed_errors: dict[int, ServiceError] = {}
        probe_ok = breaker_state = None
        with FactorService(cfg, **svc_kw) as svc:
            handles = [
                svc.submit(matrices[i], deadline_s=deadlines.get(i))
                for i in range(args.jobs)
            ]
            for i, h in enumerate(handles):
                t0 = time_mod.monotonic()
                try:
                    results[i] = h.result(timeout=cfg.timeout_s)
                except ServiceError as exc:
                    typed_errors[i] = exc
                    elapsed = time_mod.monotonic() - t0
                    dl = deadlines.get(i)
                    if (
                        isinstance(exc, DeadlineExceeded)
                        and dl is not None
                        and elapsed > dl + _DEADLINE_SLACK_S
                    ):
                        problems.append(
                            f"job {i} deadline error took {elapsed:.1f}s"
                        )
                except TimeoutError:
                    problems.append(f"job {i} HUNG past {cfg.timeout_s}s")
            if name == "breaker":
                time_mod.sleep(svc_kw["breaker_cooldown_s"] + 0.2)
                try:
                    probe = svc.factor(matrices[0], timeout=cfg.timeout_s)
                    probe_ok = True
                    ref = reference.get(0)
                    if ref is not None and not _same_factor(probe.L, ref):
                        problems.append("post-recovery probe not bitwise")
                except ServiceError as exc:
                    probe_ok = False
                    problems.append(f"post-cooldown probe failed: {exc}")
                breaker_state = svc.breaker.state
            stats = svc.stats()
        # -- invariants every scenario must hold -----------------------
        expected_errors = set(deadlines)
        if set(typed_errors) != expected_errors:
            problems.append(
                f"typed errors on jobs {sorted(typed_errors)} "
                f"(expected {sorted(expected_errors)})"
            )
        for i in expected_errors & set(typed_errors):
            if not isinstance(typed_errors[i], DeadlineExceeded):
                problems.append(
                    f"job {i} raised {type(typed_errors[i]).__name__}, "
                    "not DeadlineExceeded"
                )
        for i, res in results.items():
            key = (res.L.indptr, res.L.indices, res.L.data)
            if name == "none":
                reference[i] = key
            elif i in reference and not _same_factor(res.L, reference[i]):
                problems.append(f"job {i} factor differs bitwise")
        outcomes = sorted(
            {res.record.outcome for res in results.values()}
        )
        resil = stats["service"]["resilience"]
        if name == "none":
            if outcomes != ["clean"]:
                problems.append(f"fault-free outcomes {outcomes}")
            if resil["pool_restarts"]:
                problems.append("fault-free run restarted the pool")
        elif name == "worker-kill":
            if resil["pool_restarts"] < 1:
                problems.append("worker kill never healed the pool")
            if not (resil["recovered"] or resil["degraded"]):
                problems.append("no job tagged recovered/degraded")
            if stats["pool_generation"] < 2:
                problems.append("pool generation never advanced")
        elif name == "worker-crash":
            if not (resil["recovered"] or resil["degraded"]):
                problems.append("no job tagged recovered/degraded")
        elif name == "breaker":
            if stats["breaker"]["trips"] < 1:
                problems.append("breaker never tripped")
            if not resil["degraded"]:
                problems.append("no degraded-sequential jobs")
            if breaker_state != "closed":
                problems.append(
                    f"breaker {breaker_state!r} after cooldown probe"
                )
        shm_now = set(glob.glob("/dev/shm/psm_*"))
        leaked = shm_now - shm_before
        if leaked:
            problems.append(f"leaked shm segments: {sorted(leaked)}")
        ok = not problems
        failures += 0 if ok else 1
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] scenario={name:<13s} "
              f"ok={len(results)} typed_errors={len(typed_errors)} "
              f"outcomes={','.join(outcomes) or '-'} "
              f"restarts={resil['pool_restarts']} "
              f"recovered={resil['recovered']} "
              f"degraded={resil['degraded']}")
        for problem in problems:
            print(f"        - {problem}")
        payload[name] = {
            "ok": ok,
            "problems": problems,
            "completed": len(results),
            "typed_errors": {
                str(i): type(e).__name__ for i, e in typed_errors.items()
            },
            "outcomes": outcomes,
            "resilience": resil,
            "breaker": stats["breaker"],
            "probe_ok": probe_ok,
        }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"chaos-service report written to {args.json}")
    print(f"chaos-service: {len(payload) - failures}/{len(payload)} "
          f"scenarios {'ok' if failures == 0 else 'ok, ' + str(failures) + ' FAILED'}")
    return 0 if failures == 0 else 1


def _same_factor(L, ref: tuple) -> bool:
    """Bitwise factor comparison against a (indptr, indices, data) key."""
    return (
        np.array_equal(L.indptr, ref[0])
        and np.array_equal(L.indices, ref[1])
        and np.array_equal(L.data, ref[2])
    )


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
                        "each mapping under both and compare")
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
        "chaos",
        help="sweep fault-injection scenarios over the runtime and check "
             "recovery against the sequential factor",
    )
    p.add_argument("problem")
    p.add_argument("-p", "--procs", default="2,4",
                   help="comma-separated worker counts to sweep")
    p.add_argument("--faults", default="all",
                   help=f"comma-separated scenarios or 'all' "
                        f"({','.join(_CHAOS_SWEEP)},crash-hard,"
                        f"crash-persistent)")
    p.add_argument("--rate", type=float, default=0.15,
                   help="per-message fault probability for message faults")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (decisions are reproducible)")
    RunConfig.add_arguments(
        p, "mapping", "transport", "schedule", "block_policy",
        "max_restarts", "timeout_s", "stall_timeout_s",
        timeout_s=120.0, stall_timeout_s=15.0,
    )
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the structured chaos report to PATH")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-attempt failure details")
    _add_common(p)
    p.set_defaults(fn=cmd_chaos)

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

    p = sub.add_parser(
        "chaos-service",
        help="seeded fault matrix over the factorization service: worker "
             "kills, deadlines, circuit breaker — bitwise-checked recovery",
    )
    p.add_argument("--jobs", type=int, default=10,
                   help="jobs per scenario (same stream every scenario)")
    p.add_argument("--patterns", type=int, default=2,
                   help="distinct sparsity patterns in the stream")
    p.add_argument("--n", type=int, default=10,
                   help="base grid side (pattern i uses n + i)")
    RunConfig.add_arguments(
        p, "nprocs", "transport", "block_size", "block_policy", "timeout_s",
        "stall_timeout_s",
        nprocs=2, block_size=16, timeout_s=120.0, stall_timeout_s=10.0,
    )
    p.add_argument("--scenarios", default="all",
                   help=f"comma-separated scenarios or 'all' "
                        f"({','.join(_SERVICE_CHAOS)}); 'none' always "
                        f"runs first as the bitwise reference")
    p.add_argument("--seed", type=int, default=0,
                   help="job-stream + fault-plan seed")
    p.add_argument("--fault-at", type=int, default=-1, metavar="IDX",
                   help="dispatch index the injected crash rides on "
                        "(default: jobs // 2)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the structured report to PATH")
    p.set_defaults(fn=cmd_chaos_service)

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
