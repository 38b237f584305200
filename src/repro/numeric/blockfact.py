"""Numeric block Cholesky factorization over the supernodal block structure.

Storage: the diagonal block of panel K is a full w x w array (lower triangle
significant after factorization); each subdiagonal block (I, K) is a dense
r x w array whose rows correspond to ``BlockStructure.block_row_span(K, t)``.
Where ``A`` lands in them, where a BMOD's rows and columns land in its
destination and where each entry of ``L`` sits in CSC depend only on the
sparsity pattern: the structure's ``numeric_plan()`` holds all three, and
the numeric phase here only moves values through it.

The sequential driver is the right-looking block fan-out order of the
pseudo-code in §2.1. ``apply_task``/``run_schedule`` replay an arbitrary
task order (e.g. one recorded by the parallel simulator); dependency
correctness of that order is exactly what the integration tests verify.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.tasks import BDIV, BFAC, BMOD, TaskGraph
from repro.numeric.dense_kernels import (
    bdiv_kernel,
    bfac_kernel,
    bmod_kernel,
    bmod_kernel_into,
)


class BlockCholesky:
    """Numeric factorization state over a :class:`BlockStructure`.

    The blocks start as views of one packed store laid out by the
    structure's :class:`~repro.blocks.plan.NumericPlan` (compiled on the
    first construction over a structure, reused by every later one); the
    kernels return their own outputs, which replace the views.
    """

    def __init__(self, structure: BlockStructure, A: sparse.spmatrix):
        plan = structure.numeric_plan()
        A = A.tocsc()
        if A.shape[0] != plan.n:
            raise ValueError("matrix size disagrees with the block structure")
        src, dest = plan.scatter_map(A.indptr, A.indices)
        # bincount allocates the zeroed store and adds each entry at its
        # position in one pass, so duplicate entries of a non-canonical
        # matrix are summed, as scipy itself reads them.
        self._adopt(structure, plan, np.bincount(
            dest, weights=A.data[src], minlength=plan.size
        ))

    @classmethod
    def shell(cls, structure: BlockStructure,
              store: np.ndarray | None = None) -> "BlockCholesky":
        """Blocks carved out of ``store`` with nothing scattered: all zero
        (``store`` None) for a caller that installs every block itself,
        or a packed store the caller filled with the finished factor, laid
        out by the structure's numeric plan."""
        self = cls.__new__(cls)
        plan = structure.numeric_plan()
        filled = store is not None
        if not filled:
            store = np.zeros(plan.size)
        elif store.shape != (plan.size,):
            raise ValueError("store size disagrees with the block structure")
        self._adopt(structure, plan, store)
        self._factored[:] = filled
        return self

    def _adopt(self, structure: BlockStructure, plan, store: np.ndarray) -> None:
        """Carve the packed ``store`` into the block views."""
        self.structure = structure
        self.partition = structure.partition
        self._plan = plan
        self.diag: list[np.ndarray] = []
        self.below: list[dict[int, np.ndarray]] = []
        for (w, start, stop), span in zip(plan.slabs, plan.spans):
            slab = store[start:stop].reshape(-1, w)
            self.diag.append(slab[:w])
            self.below.append(
                {i: slab[lo:hi] for i, (lo, hi) in span.items()}
            )
        self.flops = 0
        self._factored = np.zeros(len(self.diag), dtype=bool)
        #: ``store`` while every block is still its view of it (updates
        #: land in place), so ``to_csc`` can read it whole; ``None`` once
        #: a block was replaced by an array of its own.
        self._packed: np.ndarray | None = store

    def install(self, i: int, j: int, block: np.ndarray,
                final: bool = True) -> None:
        """Put ``block`` in as block ``(i, j)`` — computed elsewhere (a
        gathered frame, a checkpoint, a migrated task's state). ``final``
        marks a diagonal block as factored."""
        self._packed = None
        if i != j:
            self.below[j][i] = block
        else:
            self.diag[j] = block
            if final:
                self._factored[j] = True

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def bfac(self, k: int) -> None:
        L, f = bfac_kernel(self.diag[k])
        self.diag[k] = L
        self._packed = None
        self.flops += f
        self._factored[k] = True

    def bdiv(self, i: int, k: int) -> None:
        if not self._factored[k]:
            raise RuntimeError(f"BDIV({i},{k}) before BFAC({k})")
        B, f = bdiv_kernel(self.below[k][i], self.diag[k])
        self.below[k][i] = B
        self._packed = None
        self.flops += f

    def bmod(self, i: int, j: int, k: int) -> None:
        """Apply ``L_IJ -= L_IK L_JK^T`` with row/column scattering."""
        blocks = self.below[k]
        lo, hi = self._plan.spans[k][i]
        self._bmod(
            blocks[i], lo, hi, blocks[j], self._plan.rel_of[k][j],
            self.diag[j] if i == j else self.below[j][i],
        )

    def _bmod(self, L_IK, lo: int, hi: int, L_JK, window, dest) -> None:
        """``dest -= L_IK L_JK^T`` for the source block at slab rows
        ``lo..hi`` of its panel and ``window == rel_of[K][J]``."""
        base, cols, cspan = window
        plan = self._plan
        a, b = base + lo, base + hi
        if cspan is not None:
            rel = plan.rel
            r0 = int(rel[a])
            if int(rel[b - 1]) - r0 == b - a - 1:
                out = dest[r0 : r0 + b - a, cspan[0] : cspan[1]]
                if out.flags.c_contiguous and out.flags.writeable:
                    # Contiguous destination window: one fused dgemm, no
                    # update temporary, no scatter.
                    self.flops += bmod_kernel_into(L_IK, L_JK, out)
                    return
        U, f = bmod_kernel(L_IK, L_JK)
        self.flops += f
        if dest.flags.c_contiguous:
            # Row-major destination: its flattening is a view, and the
            # scatter one 1-D fancy index through the compiled offsets.
            flat = dest.reshape(-1)
            flat[(plan.rel_flat[a:b, None] + cols).ravel()] -= U.ravel()
        else:
            # A block installed from elsewhere in another layout (a
            # migrated task's state): the open mesh addresses any strides.
            dest[plan.rel[a:b, None], cols] -= U

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def factor(self) -> "BlockCholesky":
        """Sequential right-looking block fan-out factorization (§2.1).

        The updates out of panel K run destination panel by destination
        panel, so what depends on (K, J) alone is looked up once; each
        lands in a block of its own, so their order among themselves
        does not reach the values."""
        plan = self._plan
        for k, span in enumerate(plan.spans):
            self.bfac(k)
            for i in span:
                self.bdiv(i, k)
            blocks = self.below[k]
            rel_of = plan.rel_of[k]
            items = list(span.items())
            for t, (j, (lo, hi)) in enumerate(items):
                L_JK, window, panel = blocks[j], rel_of[j], self.below[j]
                self._bmod(L_JK, lo, hi, L_JK, window, self.diag[j])
                for i, (lo, hi) in items[t + 1 :]:
                    self._bmod(blocks[i], lo, hi, L_JK, window, panel[i])
        return self

    def apply_task(self, tg: TaskGraph, tid: int) -> None:
        """Execute one task from a :class:`TaskGraph` by id."""
        b = int(tg.task_block[tid])
        kind = int(tg.task_kind[tid])
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        if kind == BFAC:
            self.bfac(J)
        elif kind == BDIV:
            self.bdiv(I, J)
        else:
            k = int(tg.block_J[int(tg.task_src1[tid])])
            self.bmod(I, J, k)

    def run_schedule(self, tg: TaskGraph, schedule: list[int]) -> "BlockCholesky":
        """Replay a completion order recorded by the parallel simulator."""
        if len(schedule) != tg.ntasks:
            raise ValueError("schedule does not cover every task")
        for tid in schedule:
            self.apply_task(tg, int(tid))
        return self

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def to_csc(self) -> sparse.csc_matrix:
        """Assemble the factor L as a sparse matrix (explicit zeros kept).
        Raises ``LinAlgError`` when an entry of it is NaN or Inf."""
        plan = self._plan
        indptr, indices, gather = plan.csc_pattern()
        packed = self._packed
        if packed is None:
            packed = np.empty(plan.size)
            for k, ((w, start, stop), span) in enumerate(
                zip(plan.slabs, plan.spans)
            ):
                blocks = self.below[k]
                np.concatenate(
                    [self.diag[k], *(blocks[i] for i in span)],
                    out=packed[start:stop].reshape(-1, w),
                )
        data = packed[gather]
        if not np.isfinite(data).all():
            # The kernels do not scan their operands; a NaN/Inf of the
            # matrix (or an overflow) is caught here, once, before any
            # caller is handed the factor.
            raise np.linalg.LinAlgError(
                "the factor has non-finite entries: the matrix contains "
                "infs or NaNs, or the factorization overflowed"
            )
        n = plan.n
        return sparse.csc_matrix(
            (data, indices.copy(), indptr.copy()), shape=(n, n)
        )
