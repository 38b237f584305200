"""One-shot driver for the message-passing fan-out runtime.

The runtime has one process lifecycle, :class:`repro.runtime.pool.WorkerPool`
(spawn, link fabric, dispatch, collect, reap). ``run_mp_fanout`` is that
lifecycle lived once: plan one job, open a pool for it, ``run_batch`` the
job, close the pool, and turn the :class:`~repro.runtime.pool.JobOutcome`
into an :class:`MPRuntimeResult` — or into the typed :class:`FanoutError`
that carries every salvaged ``WorkerResult`` and the ranks the failure is
attributed to. :func:`outcome_result` is that last step on its own; the
factorization service assembles its jobs and warm solves through it too.

``plan_owners`` turns the mapping names used everywhere else in the repo
(``"cyclic"``, ``"DW/CY"``, ...) into a block ownership array, so the
exact configurations studied by the simulator and the balance metrics can
be executed for real and timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.domains import assign_domains
from repro.fanout.ownership import block_owners
from repro.fanout.priorities import task_priorities
from repro.fanout.tasks import TaskGraph
from repro.mapping import best_grid, named_map
from repro.numeric.blockfact import BlockCholesky
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
from repro.runtime.trace import RunTrace, ring_capacity


class FanoutError(RuntimeError):
    """A parallel run failed. Carries whatever the driver salvaged:
    ``results`` (rank -> WorkerResult for every worker that reported) and
    ``failed_ranks`` — the recovery layer mines these for checkpoints."""

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
    priorities: np.ndarray | None = None,
    policy: str | None = None,
    depth: np.ndarray | None = None,
    timeout_s: float = 300.0,
    stall_timeout_s: float = 30.0,
    inject_failure: tuple[int, int] | None = None,
    trace: bool | int | None = None,
    mapping: str = "",
    fault_plan=None,
    recovery: bool | None = None,
    checkpoint: dict[int, bytes] | None = None,
    dead_grace_s: float = 0.0,
    renegotiate_base_s: float = 0.2,
    renegotiate_cap_s: float = 2.0,
    max_renegotiations: int = 8,
    transport: str = "auto",
    schedule: str = "static",
    steal_seed: int = 0,
    rhs: np.ndarray | None = None,
) -> MPRuntimeResult:
    """Factor ``A`` with ``nprocs`` worker processes exchanging messages.

    ``rhs`` (an ``n``-vector or ``n x nrhs`` panel stack, already in
    permuted coordinates) additionally runs the distributed triangular
    solve after the factor phase: the factor blocks stay where they were
    computed and only right-hand-side fragments travel (their own frame
    kinds and ledger — see ``docs/SOLVING.md``); the assembled solution
    lands on the result's ``solution`` attribute, bitwise identical to
    the sequential :func:`repro.numeric.solve.solve_with_factor`.

    ``schedule`` selects the execution discipline: ``"static"`` (the
    default) runs every task at its block's owner exactly as mapped;
    ``"dynamic"`` adds work stealing — an idle worker requests a ready
    BMOD/BDIV task from a seeded-random peer, executes it against the
    shipped destination-block state, and returns the result, so transient
    load imbalance converts to steal traffic instead of idle time while
    the factor stays bitwise identical (see ``docs/SCHEDULING.md``).
    ``steal_seed`` keys the deterministic victim-selection stream.

    ``transport`` selects how block payloads travel: ``"inline"`` packs
    them into the queue frames; ``"shm"`` moves them through a per-run
    shared-memory arena (64-byte descriptor frames, zero payload copies on
    the consumer side, coalesced queue puts); ``"auto"`` (the default)
    picks shm when the platform supports it and there is more than one
    worker. Logical message/byte accounting is identical across transports
    — only ``wire_bytes`` metrics differ. The arena is unlinked in every
    exit path; the gather and any salvaged checkpoint frames carry their
    payload, so they outlive it.

    ``owners[b]`` assigns block ``b`` to a worker (see :func:`plan_owners`).
    ``policy`` is a :mod:`repro.fanout.priorities` name (``"fifo"``,
    ``"column"``, ``"depth"``, ``"bottom_level"``) applied identically on
    every worker; an explicit ``priorities`` array wins over ``policy``.
    ``inject_failure=(rank, after_n_tasks)`` is the fault-injection hook the
    shutdown tests use; ``fault_plan`` (:class:`repro.runtime.faults.FaultPlan`)
    is the full chaos layer. ``trace`` turns on structured event tracing
    (:mod:`repro.runtime.trace`): ``True`` uses the default per-worker
    ring capacity, an int sets it; the merged
    :class:`~repro.runtime.trace.RunTrace` lands on the result's
    ``trace`` attribute. Tracing off (the default) adds no per-event
    allocation on the hot path. ``recovery`` turns on the in-run integrity
    protocol (CRC reject + NACK/retransmit + duplicate suppression + the
    DONE linger barrier); it defaults to on exactly when a fault plan is
    given. ``checkpoint`` maps block ids to completed-block wire frames
    from a previous attempt; those blocks are preloaded and their tasks
    skipped. Raises :class:`WorkerError` if a worker fails,
    :class:`DeadWorkerError` if one dies without reporting (after waiting
    up to ``dead_grace_s`` for surviving workers' checkpoints), and
    :class:`RuntimeTimeoutError` on a global timeout; in every case all
    child processes are reaped before returning or raising, and the raised
    :class:`FanoutError` carries every salvaged ``WorkerResult``.
    ``failed_ranks`` names the casualties only — a rank that merely
    stopped because a peer failed is not among them.
    """
    owners = np.asarray(owners)
    if owners.shape[0] != tg.nblocks:
        raise ValueError("owners must have one entry per block")
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    if owners.size and (owners.min() < 0 or owners.max() >= nprocs):
        raise ValueError("block owner out of range for nprocs")
    if schedule not in ("static", "dynamic"):
        raise ValueError(
            f"schedule must be 'static' or 'dynamic', got {schedule!r}"
        )
    if priorities is None and policy not in (None, "fifo"):
        priorities = task_priorities(tg, policy, depth=depth)
    if recovery is None:
        recovery = fault_plan is not None
    trace_capacity = ring_capacity(trace)

    if rhs is not None:
        rhs = np.ascontiguousarray(rhs, dtype=np.float64)
        if rhs.ndim == 1:
            rhs = rhs.reshape(-1, 1)
        if rhs.ndim != 2 or rhs.shape[0] != A.shape[0]:
            raise ValueError(
                f"rhs must be ({A.shape[0]}, nrhs), got {rhs.shape}"
            )

    # The very arrays the task graph's own reference to A holds (no copy
    # for csc input), so the job pickles them once.
    A = A.tocsc()
    transport = resolve_transport(transport, nprocs)
    arena = BlockArena.create(tg) if transport == "shm" else None
    # wall_s counts from before the crew is spawned.
    epoch = time.perf_counter()
    # One-shot runs keep per-worker timelines; resident service jobs don't.
    pool = WorkerPool(nprocs, stall_timeout_s, record_timeline=True)
    try:
        job = PoolJob(
            seq=0,
            pattern_id="one-shot",
            values=A.data,
            context=PatternContext(
                pattern_id="one-shot",
                structure=structure,
                tg=tg,
                owners=owners,
                priorities=priorities,
                indptr=A.indptr,
                indices=A.indices,
                shape=A.shape,
                arena_name=None if arena is None else arena.name,
                schedule=schedule,
                steal_seed=steal_seed,
            ),
            trace_capacity=trace_capacity,
            fault_plan=fault_plan,
            rhs=rhs,
            recovery=recovery,
            checkpoint=checkpoint,
            inject_failure=inject_failure,
            renegotiate_base_s=renegotiate_base_s,
            renegotiate_cap_s=renegotiate_cap_s,
            max_renegotiations=max_renegotiations,
        )
        pool.start()
        launch_s = time.perf_counter() - epoch
        outcome = pool.run_batch([job], timeout_s, dead_grace_s)[0]
        died = pool.dead_ranks()
    finally:
        pool.close()
        if arena is not None:
            arena.destroy()

    if pool.last_error is not None:
        kind = DeadWorkerError if died else RuntimeTimeoutError
        raise kind(
            f"{pool.last_error}; {len(outcome.results)}/{nprocs} workers "
            "reported",
            results=outcome.results,
            failed_ranks=outcome.failed_ranks,
        )
    if outcome.failed_ranks:
        first = outcome.failed_ranks[0]
        raise WorkerError(
            first,
            outcome.results[first].metrics.error,
            results=outcome.results,
            failed_ranks=outcome.failed_ranks,
        )
    attempt = int(fault_plan.attempt) if fault_plan is not None else 0
    factor, solution, metrics, run_trace = outcome_result(
        outcome, structure, tg, A, rhs, owners=owners,
        wall_s=launch_s + outcome.wall_s, mapping=mapping,
        transport=transport, schedule=schedule, attempt=attempt,
    )
    meta = {
        "start_method": START_METHOD,
        "recovery": recovery,
        "checkpoint_blocks": len(checkpoint) if checkpoint else 0,
        "transport": transport,
        "schedule": schedule,
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
        trace=run_trace,
        solution=solution,
    )


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
    transport: str = "inline",
    schedule: str = "static",
    problem: str = "",
    attempt: int = 0,
) -> tuple[BlockCholesky | None, np.ndarray | None, RuntimeMetrics,
           RunTrace | None]:
    """Turn a clean :class:`~repro.runtime.pool.JobOutcome` into
    ``(factor, solution, metrics, trace)`` — the one place a pooled job
    becomes a result, whoever ran it.

    ``A`` not ``None`` asks for the assembled factor (built from the
    gathered frames alone; ``owners`` lets a gather error name the rank a
    block was due from); ``rhs`` (the permuted panel the job solved) asks
    for the stitched solution; a warm solve job passes only the latter.
    ``wall_s`` defaults to the job's own (dispatch to last report); a
    one-shot run adds its launch. The trace is merged whenever the workers
    shipped one. Raises :class:`FanoutError` when the factor frames do not
    cover every block exactly once or the solution panels every row.
    """
    results = outcome.results
    nprocs = len(results)
    if wall_s is None:
        wall_s = outcome.wall_s
    factor = None if A is None else _assemble(structure, tg, results, owners)
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
        transport=transport,
        schedule=schedule,
    )
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


def _assemble(structure, tg, results, owners=None) -> BlockCholesky:
    """Fill an empty factor shell with the gathered owned blocks (gather
    frames carry their payload on every transport). Every block of ``tg``
    must arrive exactly once: a hole would read as zeros."""
    shell = BlockCholesky.shell(structure)
    senders: dict[int, list[int]] = {}
    for rank, res in results.items():
        for frame in res.frames:
            msg = wire.unpack(frame)
            b = msg.block
            shell.install(int(tg.block_I[b]), int(tg.block_J[b]), msg.payload)
            senders.setdefault(b, []).append(rank)
    off = [b for b in range(tg.nblocks) if len(senders.get(b, ())) != 1]
    if off:
        b = off[0]
        raise FanoutError(
            f"factor gather: {len(off)}/{tg.nblocks} blocks did not arrive "
            f"exactly once; block {b} ({tg.block_I[b]},{tg.block_J[b]})"
            + ("" if owners is None else f", owned by rank {owners[b]},")
            + f" came from ranks {senders.get(b, [])}", results=results,
        )
    return shell


def mp_block_cholesky(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    nprocs: int = 4,
    mapping: str = "DW/CY",
    use_domains: bool = False,
    **kwargs,
) -> MPRuntimeResult:
    """One-call convenience: plan ownership from a mapping name and run."""
    owners, name = plan_owners(
        tg.workmodel, tg, nprocs, mapping, use_domains
    )
    return run_mp_fanout(
        structure, A, tg, owners, nprocs, mapping=name, **kwargs
    )
