"""High-level facade: one-call sparse Cholesky with mapping planning.

For a downstream user who wants "factor my matrix, tell me how it would run
in parallel" without touching the layer-by-layer API:

>>> import repro
>>> from repro.solver import SparseCholesky
>>> chol = SparseCholesky(repro.grid2d_matrix(24).A).factor()
>>> x = chol.solve(b)                                    # doctest: +SKIP
>>> plan = chol.plan_parallel(P=64)                      # doctest: +SKIP
>>> plan.mflops, plan.efficiency                         # doctest: +SKIP

Execution backends: ``backend="sequential"`` factors in-process and
``backend="mp"`` runs the real message-passing runtime
(:mod:`repro.runtime`) — worker processes own blocks under the chosen
``mapping`` and exchange completed blocks as messages; per-worker metrics
land in :attr:`SparseCholesky.runtime_metrics`:

>>> with SparseCholesky(A, backend="mp", nprocs=4) as chol:  # doctest: +SKIP
...     chol.factor().runtime_metrics.measured_balance

A caller with many patterns, or a stream of re-factorizations, calls a
:class:`repro.service.FactorService` directly.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.blocks import BlockStructure, WorkModel, make_partition
from repro.config import RunConfig
from repro.fanout import TaskGraph, assign_domains, block_owners, run_fanout
from repro.machine.params import PARAGON, MachineParams
from repro.mapping import named_map
from repro.mapping.balance import overall_balance_from_owners
from repro.numeric import BlockCholesky, solve_with_factor
from repro.matrices.spd import symmetric_csc
from repro.ordering import resolve_ordering
from repro.runtime.faults import FaultPlan
from repro.symbolic import symbolic_factor


@dataclass
class ParallelPlan:
    """Predicted parallel execution of the factorization."""

    P: int
    mapping: str
    mflops: float
    efficiency: float
    balance_bound: float
    runtime_seconds: float
    comm_megabytes: float
    meta: dict = field(default_factory=dict)


class SparseCholesky:
    """Sparse Cholesky factorization with parallel planning.

    Parameters
    ----------
    A:
        Symmetric positive definite sparse matrix: both triangles stored,
        or exactly one of them (strictly lower or upper triangular input
        is mirrored, ``T + T.T - diag(T)``). An empty matrix, or a pattern
        that is neither symmetric nor triangular, raises ``ValueError``
        before any analysis.
    config, **overrides:
        The knobs — a :class:`~repro.config.RunConfig` and/or its fields
        by keyword (``ordering``, ``block_size``, ``nprocs``, ``mapping``,
        ``trace``, ...; table in ``docs/ARCHITECTURE.md``). A bad value
        raises ``ValueError`` before any analysis. Every backend reads the
        analysis group, ``"mp"`` the rest.
    backend:
        ``"sequential"`` (default) or ``"mp"`` (real message-passing
        worker processes).
    fault_plan:
        A :class:`repro.runtime.faults.FaultPlan` for the ``"mp"``
        backend (anything else raises ``TypeError`` before any analysis).
        When given, the factorization runs under the chaos layer with
        integrity checking, bounded restart, and the sequential fallback;
        the structured outcome lands in :attr:`failure_report`.

    After an ``"mp"`` :meth:`factor`, per-worker metrics land in
    :attr:`runtime_metrics` and (with ``trace``) the merged
    :class:`repro.runtime.trace.RunTrace` in :attr:`run_trace`. The first
    ``"mp"`` job plans the pattern and starts a crew of worker processes;
    the instance keeps both, so a re-factor ships values only. Release
    them with :meth:`close` or a ``with`` block (garbage collection and
    interpreter exit release them too).
    """

    BACKENDS = ("sequential", "mp")

    def __init__(
        self,
        A: sparse.spmatrix,
        config: RunConfig | None = None,
        *,
        backend: str = "sequential",
        fault_plan=None,
        **overrides,
    ):
        A = symmetric_csc(A)
        if backend not in self.BACKENDS:
            raise KeyError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.A = A
        self.backend = backend
        self.config = config = RunConfig.of(config, overrides)
        self.mapping = config.mapping
        if not isinstance(fault_plan, (FaultPlan, type(None))):
            raise TypeError(f"fault_plan must be a FaultPlan: {fault_plan!r}")
        self.fault_plan = fault_plan
        #: ``(plan, pool, seqs, release)`` of the ``"mp"`` crew, from the
        #: first job until :meth:`close`.
        self._crew = None
        #: Structured recovery outcome of the last ``"mp"`` factorization
        #: run under a fault plan (None otherwise).
        self.failure_report = None
        perm = self._resolve_ordering(A, config.ordering)
        self.symbolic = symbolic_factor(A, perm)
        self.partition = make_partition(
            self.symbolic, config.block_policy, config.block_size,
            config.min_width, config.max_width,
        )
        self.structure = BlockStructure(self.partition)
        self.workmodel = WorkModel(self.structure)
        self._taskgraph: TaskGraph | None = None
        self._numeric: BlockCholesky | None = None
        self._L: sparse.csc_matrix | None = None
        #: Per-worker metrics of the last ``"mp"`` factorization.
        self.runtime_metrics = None
        #: Merged structured trace of the last traced ``"mp"``
        #: factorization (:class:`repro.runtime.trace.RunTrace`, or None).
        self.run_trace = None
        #: Max-abs residual ``|A x - b|`` of the last :meth:`solve`
        #: (always computed — one SpMV per solve).
        self.solve_residual = None
        #: Residual history of the last :meth:`solve`: entry 0 is the
        #: direct solve, one more entry per refinement step.
        self.solve_residuals = None

    @staticmethod
    def _resolve_ordering(A, ordering):
        return resolve_ordering(A, ordering)

    # ------------------------------------------------------------------
    @property
    def taskgraph(self) -> TaskGraph:
        if self._taskgraph is None:
            self._taskgraph = TaskGraph(self.workmodel)
        return self._taskgraph

    def _run_mp(self, rhs: np.ndarray | None = None):
        """One ``"mp"`` job on the instance's crew, planned and started by
        the first (``rhs``, already permuted, appends the distributed
        solve): the service's warm path — regrow, the recovery loop under
        the resident policy, the sequential last resort."""
        from repro.runtime.engine import PatternPlan
        from repro.runtime.pool import WorkerPool
        from repro.runtime.recovery import RecoveryPolicy, run_job

        config, faults = self.config, self.fault_plan
        if self._crew is None:
            plan = PatternPlan.create(self.structure, self.taskgraph, config,
                                      "facade")
            pool = WorkerPool(config.nprocs)
            # Holds the crew, not the instance, so collection releases it.
            release = weakref.finalize(
                self, lambda: (pool.close(), plan.destroy())
            )
            self._crew = plan, pool, itertools.count(), release
        plan, pool, seqs, _ = self._crew
        policy = RecoveryPolicy(config.max_restarts + 1,
                                raising_rank_is_casualty=False)
        result = run_job(pool, plan, self.symbolic.A, policy, seqs, rhs=rhs,
                         fault_plan=faults, recovery=faults is not None)
        self.runtime_metrics, self.run_trace = result.metrics, result.trace
        if faults is not None:
            self.failure_report = result.failure_report
        return result

    def close(self) -> None:
        """Stop the ``"mp"`` crew and unlink its arena. Idempotent; a later
        ``"mp"`` job starts a new crew."""
        if self._crew is not None:
            self._crew[-1]()
            self._crew = None

    def __enter__(self) -> "SparseCholesky":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def factor(self) -> "SparseCholesky":
        """Numerically factor with the configured backend; returns self."""
        if self.backend == "sequential":
            numeric = BlockCholesky(self.structure, self.symbolic.A).factor()
        else:  # "mp"
            numeric = self._run_mp().factor
        # Refused at assembly (NaN/Inf: LinAlgError), a factor is not kept.
        self._L = numeric.to_csc()
        self._numeric = numeric
        return self

    @property
    def L(self) -> sparse.csc_matrix:
        if self._L is None:
            raise RuntimeError("call factor() first")
        return self._L

    def solve(self, b: np.ndarray, refine: int = 0) -> np.ndarray:
        """Solve ``A x = b`` using the computed factor.

        Accepts a single vector or an ``n x nrhs`` panel of right-hand
        sides (multi-RHS solves batch into block-column panels, not
        ``nrhs`` separate sweeps). The route depends on the backend:

        * ``"mp"``, not yet factored: one combined distributed run —
          factor then the distributed triangular solve, the factor blocks
          never leaving the workers that computed them (see
          ``docs/SOLVING.md``);
        * otherwise (and for corrections): the sequential block
          substitution path on the held factor, which is the bitwise
          reference for the route above.

        ``refine`` adds that many steps of iterative refinement
        (``r = b - A x``; ``x += solve(r)``). The max-abs residual is
        always computed and reported in :attr:`solve_residual` (history
        in :attr:`solve_residuals`).
        """
        if refine < 0:
            raise ValueError("refine must be non-negative")
        b = np.asarray(b, dtype=np.float64)
        if self.backend == "mp" and self._numeric is None:
            x = self._solve_distributed(b)
        else:
            x = self._base_solve(b)
        residuals = [self._residual(b, x)]
        for _ in range(refine):
            r = b - self.A @ x
            x = x + self._base_solve(r)
            residuals.append(self._residual(b, x))
        self.solve_residuals = residuals
        self.solve_residual = residuals[-1]
        return x

    def _residual(self, b: np.ndarray, x: np.ndarray) -> float:
        return float(np.max(np.abs(b - self.A @ x)))

    def _base_solve(self, b: np.ndarray) -> np.ndarray:
        """Sequential block substitution on the held factor (the
        distributed solve's bitwise reference)."""
        if self._numeric is None:
            raise RuntimeError("call factor() first")
        return solve_with_factor(self._numeric, b, self.symbolic.ordering)

    def _solve_distributed(self, b: np.ndarray) -> np.ndarray:
        """Combined distributed factor+solve in a single ``"mp"`` runtime
        launch (used when :meth:`solve` is called before :meth:`factor`):
        the factor stays distributed and only RHS fragments travel."""
        from repro.numeric.solve import permute_rhs

        pb, restore = permute_rhs(b, self.A.shape[0], self.symbolic.ordering)
        result = self._run_mp(rhs=pb.reshape(pb.shape[0], -1))
        self._L = result.factor.to_csc()
        self._numeric = result.factor
        if result.solution is None:  # the sequential last resort ran
            return self._base_solve(b)
        return restore(result.solution)

    # ------------------------------------------------------------------
    def plan_parallel(
        self,
        P: int,
        mapping: str = "ID/CY",
        machine: MachineParams = PARAGON,
        use_domains: bool = True,
    ) -> ParallelPlan:
        """Simulate the block fan-out factorization on ``P`` processors.

        ``mapping`` is ``"cyclic"`` or a ``"<row>/<col>"`` heuristic pair.
        """
        wm = self.workmodel
        cmap = named_map(wm, P, mapping)
        grid = cmap.grid
        domains = assign_domains(wm, grid.P) if use_domains else None
        owners = block_owners(self.taskgraph, cmap, domains)
        res = run_fanout(
            self.taskgraph, cmap, machine=machine, domains=domains,
            factor_ops=self.symbolic.factor_ops,
        )
        return ParallelPlan(
            P=grid.P,
            mapping=cmap.name,
            mflops=res.mflops,
            efficiency=res.efficiency,
            balance_bound=overall_balance_from_owners(wm, owners, grid.P),
            runtime_seconds=res.t_parallel,
            comm_megabytes=res.comm_bytes / 1e6,
            meta={"grid": str(grid), "messages": res.comm_messages},
        )

    def compare_mappings(
        self,
        P: int,
        mappings: tuple[str, ...] = ("cyclic", "ID/CY", "DW/CY"),
        machine: MachineParams = PARAGON,
    ) -> dict[str, ParallelPlan]:
        """Plan several mappings at once (the paper's comparison, one call)."""
        return {m: self.plan_parallel(P, m, machine) for m in mappings}

    def recommend_processors(
        self,
        target_efficiency: float = 0.5,
        candidates: tuple[int, ...] = (1, 4, 9, 16, 25, 36, 64, 100, 144, 196),
        mapping: str = "ID/CY",
        machine: MachineParams = PARAGON,
    ) -> ParallelPlan:
        """Largest machine that still achieves ``target_efficiency``.

        Sweeps the candidate machine sizes (ascending) and returns the plan
        for the largest P whose simulated efficiency meets the target; if
        none does, returns the single-processor plan.
        """
        if not 0 < target_efficiency <= 1:
            raise ValueError("target_efficiency must be in (0, 1]")
        best = self.plan_parallel(1, mapping, machine)
        for P in sorted(candidates):
            if P == 1:
                continue
            plan = self.plan_parallel(P, mapping, machine)
            if plan.efficiency >= target_efficiency:
                best = plan
        return best
