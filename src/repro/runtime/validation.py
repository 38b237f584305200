"""Validation harness: does the real runtime do what the models promised?

Two kinds of check close the loop between the paper's analytical machinery
and real execution:

1. **Numerics** — the runtime's factor satisfies ``L L^T = A`` to the same
   tolerance as the sequential :class:`~repro.numeric.blockfact.BlockCholesky`
   and lies within :func:`factor_bound` of it, and the transported bytes
   match the transport (all of them inline, one 64-byte descriptor per
   message on shm).
2. **Models** — :func:`repro.analysis.model_check.check_models`, the same
   checks :func:`repro.analysis.trace_replay.validate_trace` makes: the
   message and byte counters sum to exactly what
   :func:`repro.analysis.comm_volume.communication_volume` predicted for
   the same ownership, each worker's migration-adjusted work equals the
   :class:`~repro.blocks.workmodel.WorkModel` share the mapping
   heuristics optimized, integer for integer, and a solve phase's
   traffic equals its predictor's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.analysis.model_check import check_models
from repro.blocks.structure import BlockStructure
from repro.fanout.tasks import TaskGraph
from repro.numeric.blockfact import BlockCholesky
from repro.runtime.engine import MPRuntimeResult


class ValidationError(AssertionError):
    """The runtime disagreed with the sequential factor or the models."""


def factor_bound(owners, tg, ref) -> float:
    """How far (``max |L - ref|``) a parallel factor of the block map
    ``owners`` over ``tg`` may lie from the sequential ``ref``: 0 when
    every block column has one owner (the panel ops then stack whole
    columns and (K, J) pairs, as sequential does), else 1e-12 max|ref|."""
    own = np.asarray(owners)
    whole = np.array_equal(own, own[tg.diag_block[tg.block_J]])
    return 0.0 if whole else 1e-12 * abs(ref).max()


@dataclass
class ValidationReport:
    """Outcome of one runtime validation run."""

    problem: str
    mapping: str
    nprocs: int
    residual: float
    seq_residual: float
    factor_diff: float
    messages_measured: int
    messages_predicted: int
    bytes_measured: int
    bytes_predicted: int
    work_measured: np.ndarray
    work_predicted: np.ndarray
    #: Bytes actually transported (== ``bytes_measured`` inline; header-only
    #: descriptor traffic on the shm transport).
    wire_bytes_measured: int = 0
    transport: str = "inline"
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"validate {self.problem or '?'} mapping={self.mapping} "
            f"P={self.nprocs}: {'OK' if self.ok else 'FAILED'}",
            f"  residual        : {self.residual:.3e} "
            f"(sequential {self.seq_residual:.3e})",
            f"  |L_mp - L_seq|  : {self.factor_diff:.3e}",
            f"  messages        : {self.messages_measured} measured / "
            f"{self.messages_predicted} predicted",
            f"  bytes           : {self.bytes_measured} measured / "
            f"{self.bytes_predicted} predicted",
            f"  wire bytes      : {self.wire_bytes_measured} transported "
            f"[{self.transport}]",
            f"  work match      : max |measured - predicted| = "
            f"{np.abs(self.work_measured - self.work_predicted).max():.0f}",
        ]
        lines.extend(f"  FAIL: {f}" for f in self.failures)
        return "\n".join(lines)


def validate_runtime(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    result: MPRuntimeResult,
    tolerance: float = 1e-8,
    strict: bool = True,
    problem: str = "",
) -> ValidationReport:
    """Check a message-passing execution of ``A`` against the models.

    ``result`` is the execution (``run_mp_fanout``'s, or a
    ``SparseCholesky(backend="mp")`` job's); its ``owners`` must come from
    ``tg``. With ``strict`` (the default), any mismatch raises
    :class:`ValidationError`; otherwise the failures are listed in the
    returned report.

    Every check applies to every parallel result, faults or not: a
    faulted attempt fails and is re-run from scratch, so the attempt a
    result reports is an ordinary run. ``tolerance`` bounds the residual.
    """
    metrics = result.metrics
    L = result.to_csc()
    residual = float(abs(L @ L.T - A).max())
    seq = BlockCholesky(structure, A).factor().to_csc()
    seq_residual = float(abs(seq @ seq.T - A).max())
    factor_diff = float(abs(L - seq).max())
    model = check_models(metrics, tg, result.owners,
                         nrhs=int(result.meta.get("nrhs", 1)))
    msgs, wire_bytes = metrics.messages_total, metrics.wire_bytes_total
    transport = metrics.transport

    failures: list[str] = []
    tol = max(tolerance, 10.0 * seq_residual)
    if not residual <= tol:
        failures.append(
            f"residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    bound = factor_bound(result.owners, tg, seq)
    if not factor_diff <= bound:
        failures.append(f"factor differs from the sequential one by "
                        f"{factor_diff:.3e} (allowed {bound:.3e})")
    failures.extend(model.failures)
    # Inline frames carry their payload; a shm descriptor is 64 bytes.
    moved = metrics.bytes_total if transport == "inline" else 64 * msgs
    if wire_bytes != moved:
        failures.append(f"{transport} transport moved {wire_bytes} wire "
                        f"bytes, expected {moved}")

    report = ValidationReport(
        problem, result.mapping, metrics.nprocs, residual, seq_residual,
        factor_diff, msgs, model.messages_predicted, metrics.bytes_total,
        model.bytes_predicted, metrics.owner_work, model.work_predicted,
        wire_bytes_measured=wire_bytes, transport=transport,
        failures=failures,
    )
    if strict and failures:
        raise ValidationError(report.summary())
    return report
