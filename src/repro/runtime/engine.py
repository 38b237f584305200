"""One-shot driver for the message-passing fan-out runtime.

The runtime has one process lifecycle, :class:`repro.runtime.pool.WorkerPool`
(spawn, link fabric, dispatch, collect, reap). ``run_mp_fanout`` is that
lifecycle lived once: open a crew (:func:`one_shot_crew`), plan one job,
``run_batch`` it, and turn the :class:`~repro.runtime.pool.JobOutcome`
into an :class:`MPRuntimeResult` — or into the typed :class:`FanoutError`
that carries every salvaged ``WorkerResult`` and the ranks the failure is
attributed to. :func:`~repro.runtime.recovery.run_with_recovery` runs its
attempts through one such crew. :func:`outcome_result`, the assembly step,
also serves the factorization service's jobs and warm solves.

``plan_owners`` turns the mapping names used everywhere else in the repo
(``"cyclic"``, ``"DW/CY"``, ...) into a block ownership array, so the
exact configurations studied by the simulator and the balance metrics can
be executed for real and timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.config import RunConfig
from repro.fanout.domains import assign_domains
from repro.fanout.ownership import block_owners
from repro.fanout.tasks import TaskGraph
from repro.mapping import best_grid, named_map
from repro.numeric.blockfact import BlockCholesky
from repro.numeric.solve import permute_rhs
from repro.runtime import wire
from repro.runtime.arena import BlockArena, resolve_transport
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pool import (
    START_METHOD,
    JobOutcome,
    PatternContext,
    PoolJob,
    WorkerPool,
)
from repro.runtime.trace import RunTrace


class FanoutError(RuntimeError):
    """A parallel run failed. Carries whatever the driver salvaged:
    ``results`` (rank -> WorkerResult for every worker that reported) and
    ``failed_ranks``."""

    #: The :class:`~repro.runtime.recovery.FailureReport` of the run, set
    #: when ``run_with_recovery(fallback_sequential=False)`` re-raises.
    failure_report = None

    def __init__(self, message: str, results: dict | None = None,
                 failed_ranks: list[int] | None = None):
        super().__init__(message)
        self.results = results or {}
        self.failed_ranks = failed_ranks or []


class WorkerError(FanoutError):
    """A worker process failed; carries the remote traceback."""

    def __init__(self, rank: int, remote_traceback: str,
                 results: dict | None = None,
                 failed_ranks: list[int] | None = None):
        super().__init__(
            f"worker {rank} failed:\n{remote_traceback.rstrip()}",
            results=results,
            failed_ranks=failed_ranks if failed_ranks is not None else [rank],
        )
        self.rank = rank
        self.remote_traceback = remote_traceback


class DeadWorkerError(FanoutError):
    """A worker process died without reporting (kill/segfault stand-in)."""


class RuntimeTimeoutError(FanoutError):
    """The run exceeded its global deadline."""


@dataclass
class MPRuntimeResult:
    """A real parallel factorization: the assembled factor plus metrics."""

    factor: BlockCholesky
    metrics: RuntimeMetrics
    owners: np.ndarray
    mapping: str
    meta: dict = field(default_factory=dict)
    #: Populated by :func:`repro.runtime.recovery.run_with_recovery`.
    failure_report: object | None = None
    #: Merged structured trace (:class:`repro.runtime.trace.RunTrace`),
    #: present when the run was started with ``trace=...``.
    trace: RunTrace | None = None
    #: Distributed-solve output (permuted coordinates, ``n x nrhs``),
    #: present when the run was started with ``rhs=...``.
    solution: np.ndarray | None = None

    def to_csc(self) -> sparse.csc_matrix:
        return self.factor.to_csc()


def plan_owners(
    wm,
    tg: TaskGraph,
    nprocs: int,
    mapping: str = "DW/CY",
    use_domains: bool = False,
) -> tuple[np.ndarray, str]:
    """Block ownership for ``nprocs`` workers under a named mapping
    (names as :func:`repro.mapping.named_map` spells them)."""
    cmap = named_map(wm, nprocs, mapping)
    domains = assign_domains(wm, nprocs) if use_domains else None
    return block_owners(tg, cmap, domains), cmap.name


def run_mp_fanout(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    owners: np.ndarray,
    nprocs: int,
    config: RunConfig | None = None,
    *,
    mapping: str = "",
    rhs: np.ndarray | None = None,
    fault_plan=None,
    recovery: bool | None = None,
    checkpoint: dict[int, bytes] | None = None,
    **overrides,
) -> MPRuntimeResult:
    """Factor ``A`` with ``nprocs`` worker processes exchanging messages.

    The knobs are a :class:`~repro.config.RunConfig` (``config`` and/or
    field overrides by keyword; table in ``docs/ARCHITECTURE.md``). This
    layer reads its execution and recovery-tuning groups; placement is
    already decided: ``owners[b]`` assigns block ``b`` to a worker (see
    :func:`plan_owners`), ``nprocs`` is this attempt's width and
    ``mapping`` only labels the result.

    Per call: ``rhs`` (an ``n``-vector or ``n x nrhs`` panel stack, already
    in permuted coordinates) appends the distributed triangular solve —
    the factor blocks stay where they were computed, only right-hand-side
    fragments travel (``docs/SOLVING.md``) — and the result's ``solution``
    is bitwise identical to :func:`repro.numeric.solve.solve_with_factor`.
    ``fault_plan`` (:class:`repro.runtime.faults.FaultPlan`) injects
    faults; ``recovery`` turns on the in-run integrity protocol (CRC
    reject + NACK/retransmit + duplicate suppression + the DONE linger
    barrier) and defaults to on exactly when a fault plan is given.
    ``checkpoint`` maps block ids to completed-block wire frames from a
    previous attempt; those blocks are preloaded, their tasks skipped.

    Raises :class:`WorkerError` if a worker fails, :class:`DeadWorkerError`
    if one dies without reporting and :class:`RuntimeTimeoutError` on the
    global timeout. Every exit path reaps the children and unlinks the
    arena; the raised :class:`FanoutError` carries every salvaged
    ``WorkerResult`` (checkpoint frames carry their payload, so they
    outlive the arena) and ``failed_ranks`` names the casualties only — a
    rank that stopped because a peer failed is not among them.
    """
    owners = np.asarray(owners)
    if owners.shape[0] != tg.nblocks:
        raise ValueError("owners must have one entry per block")
    config = RunConfig.of(config, {**overrides, "nprocs": nprocs})
    if owners.size and (owners.min() < 0 or owners.max() >= nprocs):
        raise ValueError("block owner out of range for nprocs")
    if recovery is None:
        recovery = fault_plan is not None

    if rhs is not None:
        rhs, _ = permute_rhs(rhs, A.shape[0], None)
        rhs = np.ascontiguousarray(
            rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
        )

    with one_shot_crew(structure, A, tg, config) as (pool, make_job, finish):
        job = make_job(
            owners, fault_plan=fault_plan, rhs=rhs, recovery=recovery,
            checkpoint=checkpoint,
        )
        outcome = pool.run_batch([job], config.timeout_s)[0]
        return finish(outcome, job, mapping)


@contextmanager
def one_shot_crew(structure, A, tg, config: RunConfig):
    """A crew of ``config.nprocs`` workers (plus the arena, on the shm
    transport) serving one call; every exit path reaps the children and
    unlinks the arena. Yields the started pool, ``make_job(owners,
    **fields)`` — a :class:`PoolJob` of ``A`` that ships its pattern
    context — and ``finish(outcome, job, mapping, report=None)`` — the
    job's :class:`MPRuntimeResult`, or its typed :class:`FanoutError`
    raised; ``report`` becomes the ``failure_report`` of either."""
    # The very arrays the task graph's own reference to A holds (no copy
    # for csc input), so the job pickles them once.
    A = A.tocsc()
    transport = resolve_transport(config.transport, config.nprocs)
    arena = BlockArena.create(tg) if transport == "shm" else None
    # wall_s counts from before the crew is spawned.
    epoch = time.perf_counter()
    pool = WorkerPool(config.nprocs)

    def make_job(owners, seq=0, **fields) -> PoolJob:
        return PoolJob(
            seq=seq,
            pattern_id="one-shot",
            values=A.data,
            context=PatternContext(
                pattern_id="one-shot",
                structure=structure,
                tg=tg,
                owners=owners,
                indptr=A.indptr,
                indices=A.indices,
                shape=A.shape,
                arena_name=None if arena is None else arena.name,
                config=config,
            ),
            trace_capacity=config.trace_capacity,
            **fields,
        )

    def finish(outcome, job, mapping, report=None) -> MPRuntimeResult:
        if not outcome.ok:
            salvaged = dict(
                results=outcome.results, failed_ranks=outcome.failed_ranks
            )
            if pool.last_error is not None:
                # Told apart by looking at the crew as the job left it.
                kind = (DeadWorkerError if pool.dead_ranks()
                        else RuntimeTimeoutError)
                error = kind(
                    f"{pool.last_error}; {len(outcome.results)}/"
                    f"{pool.nprocs} workers reported", **salvaged,
                )
            elif outcome.failed_ranks:
                first = outcome.failed_ranks[0]
                error = WorkerError(
                    first, outcome.results[first].metrics.error, **salvaged
                )
            else:
                error = FanoutError(outcome.error or "aborted", **salvaged)
            error.failure_report = report
            raise error
        owners, rhs, plan = job.context.owners, job.rhs, job.fault_plan
        attempt = int(plan.attempt) if plan is not None else 0
        factor, solution, metrics, run_trace = outcome_result(
            outcome, structure, tg, A, rhs, owners=owners,
            wall_s=launch_s + outcome.wall_s, mapping=mapping,
            arena=arena, config=config, attempt=attempt,
        )
        meta = {
            "start_method": START_METHOD,
            "recovery": job.recovery,
            "checkpoint_blocks": len(job.checkpoint) if job.checkpoint else 0,
            "transport": transport,
            "schedule": config.schedule,
            "block_policy": getattr(
                structure.partition, "policy_name", "uniform"
            ),
        }
        if rhs is not None:
            meta["nrhs"] = int(rhs.shape[1])
        return MPRuntimeResult(
            factor=factor,
            metrics=metrics,
            owners=owners,
            mapping=mapping,
            meta=meta,
            failure_report=report,
            trace=run_trace,
            solution=solution,
        )

    try:
        pool.start()
        launch_s = time.perf_counter() - epoch
        yield pool, make_job, finish
    finally:
        pool.close()
        if arena is not None:
            arena.destroy()


def outcome_result(
    outcome: JobOutcome,
    structure: BlockStructure,
    tg: TaskGraph,
    A: sparse.spmatrix | None = None,
    rhs: np.ndarray | None = None,
    *,
    owners: np.ndarray | None = None,
    wall_s: float | None = None,
    mapping: str = "",
    arena: BlockArena | None = None,
    config: RunConfig | None = None,
    problem: str = "",
    attempt: int = 0,
) -> tuple[BlockCholesky | None, np.ndarray | None, RuntimeMetrics,
           RunTrace | None]:
    """Turn a clean :class:`~repro.runtime.pool.JobOutcome` into
    ``(factor, solution, metrics, trace)`` — the one place a pooled job
    becomes a result, whoever ran it.

    ``A`` not ``None`` asks for the assembled factor (see
    :func:`_assemble`: copied out of ``arena``, the pattern's block arena
    on the shm transport, else built from the gathered frames; ``owners``
    lets a gather error name the rank a block was due from); ``rhs`` (the
    permuted panel the job solved) asks for the stitched solution; a warm
    solve job passes only the latter. ``wall_s`` defaults to the job's
    own (dispatch to last report); a one-shot run adds its launch.
    ``mapping``, the transport (shm exactly when there is an arena) and
    the ``config``'s schedule label the metrics and the trace, which is
    merged whenever the workers shipped one. Raises :class:`FanoutError`
    when the gather does not cover every block exactly once, fails its
    integrity check, or the solution panels do not cover every row.
    """
    results = outcome.results
    nprocs = len(results)
    schedule = (config or RunConfig()).schedule
    if wall_s is None:
        wall_s = outcome.wall_s
    factor = gather = None
    if A is not None:
        factor, gather = _assemble(structure, tg, results, owners, arena)
    solution = None
    if rhs is not None:
        ptr = np.asarray(structure.partition.panel_ptr, dtype=np.int64)
        solution = np.empty_like(rhs)
        seen = 0
        for res in results.values():
            for k, panel in (res.solution or {}).items():
                solution[int(ptr[k]) : int(ptr[k + 1])] = panel
                seen += int(ptr[k + 1] - ptr[k])
        if seen != rhs.shape[0]:
            raise FanoutError(
                f"solve gather incomplete: {seen}/{rhs.shape[0]} rows "
                "reported", results=results,
            )
    metrics = RuntimeMetrics(
        nprocs=nprocs,
        wall_s=wall_s,
        workers=[res.metrics for res in results.values()],
        mapping=mapping,
        problem=problem,
        transport="inline" if arena is None else "shm",
        schedule=schedule,
    )
    if gather is not None:
        metrics.extra["gather"] = gather
    trace = None
    if any(res.trace is not None for res in results.values()):
        grid = best_grid(nprocs)
        meta = {
            "nprocs": nprocs,
            "mapping": mapping,
            "grid": [int(grid.Pr), int(grid.Pc)],
            "start_method": START_METHOD,
            "attempt": attempt,
            "schedule": schedule,
            "wall_s": wall_s,
        }
        if rhs is not None:
            meta["nrhs"] = int(rhs.shape[1])
        trace = RunTrace.from_workers(
            {r: results[r].trace for r in sorted(results)},
            meta=meta,
            attempt=attempt,
        )
    return factor, solution, metrics, trace


def _assemble(structure, tg, results, owners=None, arena=None):
    """The factor out of a clean job's results, and the ``gather`` record
    of how it got here (``RuntimeMetrics.extra["gather"]``).

    With an ``arena`` (shm) the final blocks are read where their owners
    put them: one indexed copy into a private packed store (the slots are
    reused by the pattern's next job), then one CRC pass per rank over the
    slots of the blocks it reported, against the CRC it computed from the
    values it held (:attr:`~repro.runtime.worker.WorkerResult.held`).
    Without one, every owned block came home as a CRC-checked frame.
    Either way every block of ``tg`` must be reported exactly once — a
    hole would read as zeros — and any breach is a :class:`FanoutError`
    naming the block and the rank."""
    clock = time.perf_counter
    t0 = clock()
    #: rank -> the block ids it reported, in the order it reported them.
    reported: dict = {}
    if arena is not None:
        plan = structure.numeric_plan()
        factor = BlockCholesky.shell(
            structure, plan.from_arena(arena.layout, arena.words)
        )
        for rank, res in results.items():
            reported[rank] = () if res.held is None else res.held[0]
        nbytes = arena.layout.payload_bytes
    else:
        factor = BlockCholesky.shell(structure)
        nbytes = 0
        for rank, res in results.items():
            blocks = reported[rank] = []
            for frame in res.frames:
                try:
                    msg = wire.unpack(frame)
                except wire.WireError as exc:
                    # A CRC mismatch or a short payload leaves the header,
                    # and so the block id, readable.
                    b = (wire.frame_block(frame)
                         if len(frame) >= wire.HEADER_BYTES else -1)
                    raise FanoutError(
                        f"factor gather: rank {rank} sent a bad frame for "
                        f"block {b}: {exc}", results=results,
                    ) from exc
                b = msg.block
                factor.install(
                    int(tg.block_I[b]), int(tg.block_J[b]), msg.payload
                )
                blocks.append(b)
                nbytes += len(frame)
    t1 = clock()

    def where(b):
        due = "" if owners is None else f", owned by rank {owners[b]},"
        return f"block {b} ({tg.block_I[b]},{tg.block_J[b]}){due}"

    ids = np.concatenate(
        [np.asarray(blocks, dtype=np.int64) for blocks in reported.values()]
    )
    off = np.flatnonzero(np.bincount(ids, minlength=tg.nblocks) != 1)
    if off.size:
        b = int(off[0])
        senders = [r for r in sorted(reported)
                   for x in reported[r] if x == b]
        raise FanoutError(
            f"factor gather: {len(off)}/{tg.nblocks} blocks did not arrive "
            f"exactly once; {where(b)} came from ranks {senders}",
            results=results,
        )
    for rank, res in results.items():
        if arena is not None and res.held is not None:
            blocks, crcs = res.held
            got = arena.running_crc(blocks.tolist())
            bad = np.flatnonzero(np.asarray(got, dtype=np.uint32) != crcs)
            if bad.size:
                raise FanoutError(
                    f"factor gather: rank {rank}'s arena slot of "
                    f"{where(int(blocks[bad[0]]))} does not hold the bytes "
                    "the rank computed (CRC mismatch)", results=results,
                )
    return factor, {
        "mode": "frames" if arena is None else "arena",
        "blocks": int(ids.shape[0]),
        "bytes": nbytes,
        "copy_s": t1 - t0,
        "check_s": clock() - t1,
    }


def mp_block_cholesky(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    config: RunConfig | None = None,
    **kwargs,
) -> MPRuntimeResult:
    """One-call convenience: plan ownership from the config's placement
    group (``nprocs``, ``mapping``, ``use_domains``) and run. ``kwargs``
    are :func:`run_mp_fanout`'s: per-call arguments and config overrides."""
    knobs = {f.name for f in fields(RunConfig)} & kwargs.keys()
    config = RunConfig.of(config, {k: kwargs.pop(k) for k in knobs})
    owners, name = plan_owners(
        tg.workmodel, tg, config.nprocs, config.mapping, config.use_domains
    )
    return run_mp_fanout(
        structure, A, tg, owners, config.nprocs, config, mapping=name,
        **kwargs,
    )
