"""Validation harness: does the real runtime do what the models promised?

Three checks close the loop between the paper's analytical machinery and
real execution:

1. **Numerics** — the runtime's factor satisfies ``L L^T = A`` to the same
   tolerance as the sequential :class:`~repro.numeric.blockfact.BlockCholesky`.
2. **Communication** — the per-link message counters sum to exactly the
   message (and byte) count the static predictor
   :func:`repro.analysis.comm_volume.communication_volume` computed for the
   same ownership.
3. **Load distribution** — each worker's executed work (flops plus the
   per-operation fixed cost) equals the :class:`~repro.blocks.workmodel.WorkModel`
   share the mapping heuristics optimized, integer for integer. Under
   ``schedule="dynamic"`` the identity is migration-adjusted: executed
   minus stolen-in plus shipped-away work equals the owner share exactly
   (the steal ledger rides outside the data counters, so the message and
   byte checks stay exact either way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.analysis.comm_volume import communication_volume
from repro.blocks.structure import BlockStructure
from repro.fanout.tasks import TaskGraph
from repro.numeric.blockfact import BlockCholesky
from repro.runtime.engine import MPRuntimeResult


class ValidationError(AssertionError):
    """The runtime disagreed with the sequential factor or the models."""


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
    result reports is an ordinary run.
    """
    wm = tg.workmodel
    owners = result.owners
    nprocs = result.metrics.nprocs

    L = result.to_csc()
    residual = float(abs(L @ L.T - A).max())
    seq = BlockCholesky(structure, A).factor().to_csc()
    seq_residual = float(abs(seq @ seq.T - A).max())
    factor_diff = float(abs(L - seq).max())

    predicted = communication_volume(tg, owners)
    measured_msgs = result.metrics.messages_total
    measured_bytes = result.metrics.bytes_total
    wire_bytes = result.metrics.wire_bytes_total
    transport = result.metrics.transport

    # Under the dynamic schedule, executed work migrates; fold the steal
    # ledger back so the comparison is owner share vs owner share.
    work_measured = np.array(
        [
            w.work_executed
            - getattr(w, "work_stolen", 0)
            + getattr(w, "work_shipped", 0)
            for w in result.metrics.workers
        ],
        dtype=np.int64,
    )
    work_predicted = np.bincount(
        owners, weights=wm.work, minlength=nprocs
    ).astype(np.int64)

    failures: list[str] = []
    tol = max(tolerance, 10.0 * seq_residual)
    if not residual <= tol:
        failures.append(
            f"residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    if measured_msgs != predicted.messages:
        failures.append(
            f"measured {measured_msgs} messages, comm_volume predicted "
            f"{predicted.messages}"
        )
    if measured_bytes != predicted.bytes:
        failures.append(
            f"measured {measured_bytes} bytes, comm_volume predicted "
            f"{predicted.bytes}"
        )
    if not np.array_equal(work_measured, work_predicted):
        failures.append(
            "per-worker executed work differs from the WorkModel "
            f"distribution by up to "
            f"{np.abs(work_measured - work_predicted).max()}"
        )
    if transport == "inline" and wire_bytes != measured_bytes:
        failures.append(
            f"inline transport moved {wire_bytes} wire bytes, "
            f"logical accounting says {measured_bytes}"
        )
    if transport == "shm" and wire_bytes != 64 * measured_msgs:
        failures.append(
            f"shm transport moved {wire_bytes} wire bytes; expected "
            f"header-only traffic {64 * measured_msgs}"
        )

    report = ValidationReport(
        problem=problem,
        mapping=result.mapping,
        nprocs=nprocs,
        residual=residual,
        seq_residual=seq_residual,
        factor_diff=factor_diff,
        messages_measured=measured_msgs,
        messages_predicted=predicted.messages,
        bytes_measured=measured_bytes,
        bytes_predicted=predicted.bytes,
        wire_bytes_measured=wire_bytes,
        transport=transport,
        work_measured=work_measured,
        work_predicted=work_predicted,
        failures=failures,
    )
    if strict and failures:
        raise ValidationError(report.summary())
    return report
