"""The one job path of the message-passing fan-out runtime.

One process lifecycle, :class:`repro.runtime.pool.WorkerPool`, and one way
to run a job on it: a :class:`PatternPlan` builds the
:class:`~repro.runtime.pool.PoolJob`, the pool runs it (a factor job
through :func:`repro.runtime.recovery.recover`), and the
:class:`~repro.runtime.pool.JobOutcome` becomes a result
(:func:`outcome_result`) or the typed :class:`FanoutError` of
:func:`raise_failure`. Three owners hold a pool: :func:`run_mp_fanout`
for one call, a ``SparseCholesky(backend="mp")`` instance across its
calls, and the factorization service.

``plan_owners`` turns the mapping names used everywhere else in the repo
(``"cyclic"``, ``"DW/CY"``, ...) into a block ownership array, so the
exact configurations studied by the simulator and the balance metrics can
be executed for real and timed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

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
    START_METHOD, JobOutcome, PatternContext, PoolJob, WorkerPool,
)
from repro.runtime.trace import RunTrace


class FanoutError(RuntimeError):
    """A parallel run failed. Carries whatever the driver salvaged:
    ``results`` (rank -> WorkerResult for every worker that reported) and
    ``failed_ranks``."""

    #: The :class:`~repro.runtime.recovery.FailureReport` of the run, set
    #: when :func:`~repro.runtime.recovery.run_job` raises it (every
    #: ``run_mp_fanout`` failure).
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
    #: Populated by :func:`repro.runtime.recovery.run_job`.
    failure_report: object | None = None
    #: Merged structured trace (:class:`repro.runtime.trace.RunTrace`),
    #: present when the run was started with ``trace=...``.
    trace: RunTrace | None = None
    #: Distributed-solve output (permuted coordinates, ``n x nrhs``),
    #: present when the run was started with ``rhs=...``.
    solution: np.ndarray | None = None

    def to_csc(self) -> sparse.csc_matrix:
        return self.factor.to_csc()


def plan_owners(wm, tg: TaskGraph, nprocs: int, mapping: str = "DW/CY",
                use_domains: bool = False) -> tuple[np.ndarray, str]:
    """Block ownership for ``nprocs`` workers under a named mapping
    (names as :func:`repro.mapping.named_map` spells them)."""
    cmap = named_map(wm, nprocs, mapping)
    domains = assign_domains(wm, nprocs) if use_domains else None
    return block_owners(tg, cmap, domains), cmap.name


@dataclass
class PatternPlan:
    """The driver's plan of one sparsity pattern, whoever owns the pool
    (the service's cache entry extends it): the block map ``owners`` /
    ``mapping_name``, planned once for the ``config``'s crew width, the
    ``config`` its jobs run under and its driver-owned shm ``arena``
    (None on inline)."""

    pattern_id: str
    structure: object
    tg: object
    owners: np.ndarray | None = None
    mapping_name: str = ""
    config: RunConfig = field(default_factory=RunConfig)
    arena: BlockArena | None = None

    @classmethod
    def create(cls, structure, tg, config: RunConfig, pattern_id="one-shot",
               **fields) -> "PatternPlan":
        """A plan under ``config``, with an arena when its transport
        resolves to shm; ``fields`` are the other fields. Without
        ``owners`` it plans them for ``config.nprocs`` workers."""
        if fields.get("owners") is None:
            fields["owners"], fields["mapping_name"] = plan_owners(
                tg.workmodel, tg, config.nprocs, config.mapping,
                config.use_domains,
            )
        shm = resolve_transport(config.transport, config.nprocs) == "shm"
        return cls(pattern_id, structure, tg, config=config,
                   arena=BlockArena.create(tg) if shm else None, **fields)

    def context(self, A) -> PatternContext:
        """The context to ship, over ``A``'s (permuted csc) pattern."""
        return PatternContext(
            self.pattern_id, self.structure, self.tg, self.owners,
            A.indptr, A.indices, tuple(A.shape),
            None if self.arena is None else self.arena.name, self.config,
        )

    def job(self, pool: WorkerPool, A, seq: int, **fields) -> PoolJob:
        """The factor job of ``A`` on ``pool``, with the context exactly
        when the pool has not seen the pattern; ``fields`` are its other
        :class:`PoolJob` fields."""
        context = (None if self.pattern_id in pool.seen_patterns
                   else self.context(A))
        return PoolJob(seq, self.pattern_id, A.data, context,
                       self.config.trace_capacity, **fields)

    def destroy(self) -> None:
        """Release the arena segment (the driver owns it). Idempotent."""
        if self.arena is not None:
            self.arena.destroy()
            self.arena = None


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
    **overrides,
) -> MPRuntimeResult:
    """Factor ``A`` with ``nprocs`` worker processes exchanging messages.

    The knobs are a :class:`~repro.config.RunConfig` (``config`` and/or
    field overrides by keyword; table in ``docs/ARCHITECTURE.md``). This
    layer reads its execution group; placement is
    already decided: ``owners[b]`` assigns block ``b`` to a worker (see
    :func:`plan_owners`), ``nprocs`` is this attempt's width and
    ``mapping`` only labels the result.

    Per call: ``rhs`` (an ``n``-vector or ``n x nrhs`` panel stack, already
    in permuted coordinates) appends the distributed triangular solve —
    the factor blocks stay where they were computed, only right-hand-side
    fragments travel (``docs/SOLVING.md``) — and the result's ``solution``
    is bitwise identical to :func:`repro.numeric.solve.solve_with_factor`.
    ``fault_plan`` (:class:`repro.runtime.faults.FaultPlan`) injects
    faults.

    The measurement path: one attempt through the recovery loop
    (:func:`repro.runtime.recovery.run_job`), on a pool of its own and
    with no fallback, so any fault that fails the attempt raises.
    Raises :class:`WorkerError` if a worker fails (a corrupt frame
    included), :class:`DeadWorkerError` if one dies without reporting and
    :class:`RuntimeTimeoutError` on the global timeout. Every exit path
    reaps the children and unlinks the arena; the raised
    :class:`FanoutError` carries every ``WorkerResult`` that reported,
    the attempt's ``failure_report``, and ``failed_ranks`` names the
    casualties only — a rank that stopped because a peer failed is not
    among them.
    """
    owners = np.asarray(owners)
    if owners.shape[0] != tg.nblocks:
        raise ValueError("owners must have one entry per block")
    config = RunConfig.of(config, {**overrides, "nprocs": nprocs})
    if owners.size and (owners.min() < 0 or owners.max() >= nprocs):
        raise ValueError("block owner out of range for nprocs")
    if rhs is not None:
        rhs, _ = permute_rhs(rhs, A.shape[0], None)
        rhs = np.ascontiguousarray(rhs.reshape(rhs.shape[0], -1))

    # Imported here: the recovery loop imports this module.
    from repro.runtime.recovery import run_job

    # The very arrays the task graph's own reference to A holds (no copy
    # for csc input), so the job pickles them once.
    A = A.tocsc()
    plan = PatternPlan.create(structure, tg, config, owners=owners,
                              mapping_name=mapping)
    pool = WorkerPool(nprocs)
    try:
        return run_job(
            pool, plan, A, 1, itertools.count(), rhs=rhs,
            fault_plan=fault_plan, fallback_sequential=False,
        )
    finally:
        pool.close()
        plan.destroy()


def raise_failure(outcome: JobOutcome, report=None):
    """Raise the typed :class:`FanoutError` of a failed ``outcome``: what
    broke the crew (:attr:`JobOutcome.broke` — a dead process or the pool
    timeout) outranks the first raising rank. It carries the salvaged
    results and ``report`` as its ``failure_report``."""
    salvaged = dict(results=outcome.results, failed_ranks=outcome.failed_ranks)
    if outcome.broke is not None:
        kind = DeadWorkerError if outcome.died else RuntimeTimeoutError
        error = kind(
            f"{outcome.broke}; {len(outcome.results)} workers reported",
            **salvaged,
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


def job_result(plan: PatternPlan, job: PoolJob, outcome: JobOutcome,
               launch_s=0.0, report=None) -> MPRuntimeResult:
    """The result of ``plan``'s factor ``job`` (whose crew took
    ``launch_s`` to start), or its :func:`raise_failure`; ``report`` is
    the ``failure_report`` of either."""
    if not outcome.ok:
        raise_failure(outcome, report)
    factor, solution, metrics, run_trace = outcome_result(
        outcome, plan.structure, plan.tg, True, job.rhs, owners=plan.owners,
        wall_s=launch_s + outcome.wall_s, mapping=plan.mapping_name,
        arena=plan.arena, config=plan.config,
    )
    meta = dict(
        start_method=START_METHOD,
        transport=metrics.transport, schedule=plan.config.schedule,
        block_policy=getattr(plan.structure.partition, "policy_name",
                             "uniform"),
    )
    if job.rhs is not None:
        meta["nrhs"] = int(job.rhs.shape[1])
    return MPRuntimeResult(
        factor, metrics, plan.owners, plan.mapping_name, meta,
        failure_report=report, trace=run_trace, solution=solution,
    )


def outcome_result(
    outcome: JobOutcome,
    structure: BlockStructure,
    tg: TaskGraph,
    factor: bool = False,
    rhs: np.ndarray | None = None,
    *,
    owners: np.ndarray | None = None,
    wall_s: float | None = None,
    mapping: str = "",
    arena: BlockArena | None = None,
    config: RunConfig | None = None,
    problem: str = "",
) -> tuple[BlockCholesky | None, np.ndarray | None, RuntimeMetrics,
           RunTrace | None]:
    """Turn a clean :class:`~repro.runtime.pool.JobOutcome` into
    ``(factor, solution, metrics, trace)`` — the one place a pooled job
    becomes a result, whoever ran it.

    ``factor`` asks for the assembled factor (see
    :func:`_assemble`: copied out of ``arena``, the pattern's shared store
    on the shm transport, else built from the gathered frames; ``owners``
    lets a gather error name the rank a block was due from); ``rhs`` (the
    permuted panel the job solved) asks for the stitched solution; a warm
    solve job passes only the latter. ``wall_s`` defaults to the job's
    own (dispatch to last report); a caller that started the crew adds
    its launch.
    ``mapping``, the transport (shm exactly when there is an arena) and
    the ``config``'s schedule label the metrics and the trace (attempt
    ``outcome.attempt``, merged whenever the workers shipped one). Raises
    :class:`FanoutError` when the gather does not cover every block
    exactly once, fails its integrity check, or the solution panels miss a row.
    """
    results = outcome.results
    nprocs = len(results)
    schedule = (config or RunConfig()).schedule
    if wall_s is None:
        wall_s = outcome.wall_s
    assembled = gather = None
    if factor:
        assembled, gather = _assemble(structure, tg, results, owners, arena)
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
        nprocs, wall_s, [res.metrics for res in results.values()], mapping,
        problem, "inline" if arena is None else "shm", schedule,
    )
    if gather is not None:
        metrics.extra["gather"] = gather
    trace = None
    if any(res.trace is not None for res in results.values()):
        grid = best_grid(nprocs)
        meta = dict(
            nprocs=nprocs, mapping=mapping, grid=[int(grid.Pr), int(grid.Pc)],
            start_method=START_METHOD, attempt=outcome.attempt,
            schedule=schedule, wall_s=wall_s,
        )
        if rhs is not None:
            meta["nrhs"] = int(rhs.shape[1])
        trace = RunTrace.from_workers(
            {r: results[r].trace for r in sorted(results)}, meta=meta,
            attempt=outcome.attempt,
        )
    return assembled, solution, metrics, trace


def _assemble(structure, tg, results, owners=None, arena=None):
    """The factor out of a clean job's results, and the ``gather`` record
    of how it got here (``RuntimeMetrics.extra["gather"]``).

    With an ``arena`` (shm) the ranks factored its store in place: one
    copy of it into private memory (the pattern's next job factors in the
    segment again), then every block is checked against the CRC its rank
    took when it published it
    (:attr:`~repro.runtime.worker.WorkerResult.held`).
    Without one, every owned block came home as a CRC-checked frame.
    Either way every block of ``tg`` must be reported exactly once — a
    hole would read as zeros — and any breach is a :class:`FanoutError`
    naming the block and the rank."""
    clock = time.perf_counter
    t0 = clock()
    #: rank -> the block ids it reported, in the order it reported them.
    reported: dict = {}
    if arena is not None:
        factor = BlockCholesky.shell(structure, np.array(arena.store))
        for rank, res in results.items():
            reported[rank] = () if res.held is None else res.held[0]
        nbytes = factor.store.nbytes
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
            got = arena.checksums(blocks.tolist())
            bad = np.flatnonzero(got != crcs)
            if bad.size:
                raise FanoutError(
                    f"factor gather: {where(int(blocks[bad[0]]))} does not "
                    f"hold the bytes rank {rank} published (CRC mismatch)",
                    results=results,
                )
    return factor, {
        "mode": "frames" if arena is None else "arena",
        "blocks": int(ids.shape[0]),
        "bytes": nbytes,
        "copy_s": t1 - t0,
        "check_s": clock() - t1,
    }
