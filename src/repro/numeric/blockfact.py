"""Numeric block Cholesky factorization over the supernodal block structure.

Storage: the diagonal block of panel K is a full w x w array (lower triangle
significant after factorization); each subdiagonal block (I, K) is a dense
r x w array whose rows correspond to ``BlockStructure.block_row_span(K, t)``.
Where ``A`` lands in them, where an update's rows and columns land in its
destination panel and where each entry of ``L`` sits in CSC depend only on
the sparsity pattern: the structure's ``numeric_plan()`` holds all three,
and the numeric phase here only moves values through it.

The unit of work is the panel, in two ops. In place of the paper's BFAC
and per-block BDIV the *panel factor* :meth:`BlockCholesky.pfac`: BFAC(K)
where the diagonal block is held, then the BDIVs of column K's stacked rows
(or the share of them one processor owns) as one dtrsm. In place of the
paper's per-block BMOD the *panel update* :meth:`BlockCholesky.pmod`:
every update from source panel K into destination panel J (or the share of
them whose destinations one processor owns) as one dgemm over K's stacked
rows and one scatter into J's slab. The sequential driver is the
right-looking block fan-out order of the pseudo-code in §2.1, one panel
factor per K and one panel update per (K, J).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.numeric.dense_kernels import (
    NotPositiveDefiniteError,
    bdiv_kernel,
    bfac_kernel,
    bmod_kernel,
    bmod_kernel_into,
)


class BlockCholesky:
    """Numeric factorization state over a :class:`BlockStructure`.

    Every block is a view of one packed store laid out by the structure's
    :class:`~repro.blocks.plan.NumericPlan` (compiled on the first
    construction over a structure, reused by every later one) from the
    scatter of ``A`` to :meth:`to_csc`: the kernels write their outputs back
    into the views, and a block installed from elsewhere is copied in. So a
    panel's rows are always one row-major slab, which is what lets one
    dgemm read the stacked rows of a panel update. The store may also be
    external (:meth:`over`): the shared-memory segment the ranks of the
    shm transport factor in place, each on the blocks it owns.
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
        filled = store is not None
        if not filled:
            store = np.zeros(structure.numeric_plan().size)
        self = cls.over(structure, store)
        self._factored[:] = filled
        return self

    @classmethod
    def over(cls, structure: BlockStructure,
             store: np.ndarray) -> "BlockCholesky":
        """Blocks carved out of an external packed ``store`` laid out by
        the structure's numeric plan (on the shared-memory transport, the
        segment every rank factors in place), taken as it is: nothing is
        scattered and no block is factored yet (:meth:`scatter` starts a
        factorization)."""
        plan = structure.numeric_plan()
        if store.shape != (plan.size,):
            raise ValueError("store size disagrees with the block structure")
        self = cls.__new__(cls)
        self._adopt(structure, plan, store)
        return self

    def _adopt(self, structure: BlockStructure, plan, store: np.ndarray) -> None:
        """Carve the packed ``store`` into the panel slabs and block views."""
        self.structure = structure
        self.partition = structure.partition
        self._plan = plan
        #: The packed store every block is a view of.
        self.store = store
        self._slabs = [
            store[start:stop].reshape(-1, w) for w, start, stop in plan.slabs
        ]
        widths = [w for w, _, _ in plan.slabs]
        self.diag: list[np.ndarray] = [
            slab[:w] for slab, w in zip(self._slabs, widths)
        ]
        self.below: list[dict[int, np.ndarray]] = [
            {i: slab[lo:hi] for i, (lo, hi) in span.items()}
            for slab, span in zip(self._slabs, plan.spans)
        ]
        #: Per panel K, its subdiagonal blocks stacked in ``block_rows[K]``
        #: order — slab rows ``w..``, one C-ordered view whose rows are
        #: ``rows_below[K]``: the operand of a panel's solve updates.
        self.stacked: list[np.ndarray] = [
            slab[w:] for slab, w in zip(self._slabs, widths)
        ]
        self.flops = 0
        self._factored = np.zeros(len(self.diag), dtype=bool)

    def scatter(self, runs, src: np.ndarray, at: np.ndarray,
                values: np.ndarray) -> None:
        """Start a factorization over the store's ``runs`` only — the
        ``(lo, hi, off)`` word runs of
        :meth:`~repro.blocks.plan.NumericPlan.init_map` — setting them to
        the entries of ``A`` (``values``, its CSC data) that land there:
        ``values[src]`` summed at ``at``, zero elsewhere. No block is
        factored yet."""
        n = runs[-1][2] + runs[-1][1] - runs[-1][0] if runs else 0
        words = np.bincount(at, weights=values[src], minlength=n)
        for lo, hi, off in runs:
            self.store[lo:hi] = words[off : off + hi - lo]
        self.flops = 0
        self._factored[:] = False

    def install(self, i: int, j: int, block: np.ndarray | None,
                final: bool = True) -> None:
        """Copy ``block`` into block ``(i, j)`` — computed elsewhere (a
        gathered frame, a migrated task's state); None when it is already
        in place (a shared store). ``final`` marks a diagonal block as
        factored."""
        if block is not None:
            (self.below[j][i] if i != j else self.diag[j])[...] = block
        if i == j and final:
            self._factored[j] = True

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def bfac(self, k: int) -> None:
        """BFAC(K). A pivot that is not positive raises
        :class:`NotPositiveDefiniteError` naming its global column."""
        try:
            L, f = bfac_kernel(self.diag[k])
        except NotPositiveDefiniteError as exc:
            column = int(self.partition.panel_ptr[k]) + exc.minor - 1
            raise NotPositiveDefiniteError(
                f"the matrix is not positive definite: the pivot of column "
                f"{column} (panel {k}) is not positive", exc.minor, k, column,
            ) from None
        self.diag[k][...] = L
        self.flops += f
        self._factored[k] = True

    def pfac(self, k: int, rows=slice(None), diag: bool = True) -> None:
        """PFAC(K, rows): BFAC(K) when ``diag`` (the share holds ``L_KK``
        and has not factored it yet), then the BDIVs of the stacked
        subdiagonal rows ``rows`` of panel K as one dtrsm against
        ``L_KK``: a slice is a view of the slab, solved in place; an index
        array (a share that skips blocks) is solved in a copy and written
        back; None is no rows."""
        if diag:
            self.bfac(k)
        elif not self._factored[k]:
            raise RuntimeError(f"BDIV of panel {k} before BFAC({k})")
        if rows is None:
            return
        S = self.stacked[k]
        X, f = bdiv_kernel(S[rows], self.diag[k])
        if not np.may_share_memory(X, S):
            S[rows] = X
        self.flops += f

    def pmod(self, k: int, j: int, rows) -> None:
        """PMOD(K, J): panel J's slab ``-= L[rows] L_JK^T`` — one dgemm over
        the stacked slab rows ``rows`` of panel K (a slice, or an index
        array for a share that skips blocks), all at or below block
        ``(J, K)``, and one scatter of the result through the plan's
        ``slab_flat``. A result whose destination is one row-major window
        of the slab is accumulated there by the dgemm itself instead."""
        plan = self._plan
        base, cols, cspan = plan.rel_of[k][j]
        S = self._slabs[k][rows]
        L_JK = self.below[k][j]
        if isinstance(rows, slice):
            at = plan.slab_flat[base + rows.start : base + rows.stop]
        else:
            at = plan.slab_flat[base + rows]
        dest = self._slabs[j]
        if cspan is not None:
            w = dest.shape[1]
            r0, m = int(at[0]) // w, at.shape[0]
            if int(at[-1]) // w - r0 == m - 1:
                out = dest[r0 : r0 + m, cspan[0] : cspan[1]]
                if out.flags.c_contiguous:
                    self.flops += bmod_kernel_into(S, L_JK, out)
                    return
        U, f = bmod_kernel(S, L_JK)
        self.flops += f
        dest.reshape(-1)[(at[:, None] + cols).ravel()] -= U.ravel()

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def factor(self) -> "BlockCholesky":
        """Sequential right-looking block fan-out factorization (§2.1),
        one panel factor per K (the whole column) and one panel update per
        (K, J): the rows of K at or below block J, stacked."""
        for k, span in enumerate(self._plan.spans):
            self.pfac(k)
            end = self._slabs[k].shape[0]
            for j, (lo, _) in span.items():
                self.pmod(k, j, slice(lo, end))
        return self

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def to_csc(self) -> sparse.csc_matrix:
        """Assemble the factor L as a sparse matrix (explicit zeros kept).
        Raises ``LinAlgError`` when an entry of it is NaN or Inf."""
        plan = self._plan
        indptr, indices, gather = plan.csc_pattern()
        data = self.store[gather]
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
