"""Triangular solves with a computed factor: the end-to-end user path.

``solve_with_factor`` takes the original (unpermuted) right-hand side,
applies the factorization permutation, runs forward/backward substitution,
and un-permutes — i.e. it solves ``A x = b`` given ``P A P^T = L L^T``.

Two factor representations are accepted:

* a sparse ``L`` (``scipy`` triangular solves — the historical path);
* a :class:`~repro.numeric.blockfact.BlockCholesky` — block-level
  substitution over the same dense panels the factorization produced.

The block path is the **bitwise reference** for the distributed solve in
:mod:`repro.runtime` at the same grouping: both sides run the same four
kernels (:func:`fsolve_kernel` / :func:`fupd_kernel` /
:func:`bsolve_kernel` / :func:`bupd_kernel`), one update product per
panel and owner, applied in the same order, with every operand
normalized to C order first. Where one rank owns every block of a column
(every ``1 x P`` grid) that is this loop's one product per panel, so a
distributed solve reproduces it float for float on every transport and
schedule.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve_triangular

from repro.numeric.blockfact import BlockCholesky
from repro.numeric.dense_kernels import trtrs_lower
from repro.ordering.base import Ordering

__all__ = [
    "solve_with_factor",
    "permute_rhs",
    "block_solve_permuted",
    "block_forward",
    "block_backward",
    "fsolve_kernel",
    "fupd_kernel",
    "bsolve_kernel",
    "bupd_kernel",
    "solve_flops",
]


# ----------------------------------------------------------------------
# Solve kernels
#
# Every factor block is forced C-contiguous before the LAPACK / BLAS
# call: a diagonal block is C-ordered out of ``bfac_kernel``, a link or
# the shared store but may be handed over in any layout, and LAPACK rounds
# differently per layout (see ``trtrs_lower``). Normalizing here is what
# makes the distributed solve bitwise-identical to this sequential
# reference. The two triangular solves are one ``dtrtrs`` each, through
# the handle ``dense_kernels`` resolved at import; neither scans for
# NaN/Inf — a right-hand side is checked once, in ``permute_rhs``.
# ----------------------------------------------------------------------

def fsolve_kernel(Lkk: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Y_K = L_KK^{-1} B`` (forward solve against a diagonal block)."""
    return np.ascontiguousarray(trtrs_lower(Lkk, B, 0))


def fupd_kernel(Lik: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``U = L_IK Y_K`` — the forward update of the stacked subdiagonal
    rows ``L_IK`` of one panel (all of them, or one rank's share)."""
    return np.ascontiguousarray(Lik) @ np.ascontiguousarray(Y)


def bsolve_kernel(Lkk: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``X_K = L_KK^{-T} B`` (backward solve against a diagonal block)."""
    return np.ascontiguousarray(trtrs_lower(Lkk, B, 1))


def bupd_kernel(Lik: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``U = L_IK^T X_I`` — the backward update of the same stacked rows,
    ``X_I`` the solution at their global rows."""
    return np.ascontiguousarray(Lik).T @ np.ascontiguousarray(X)


def solve_flops(rows: int, cols: int, nrhs: int, diag: bool) -> int:
    """Work charged for one solve task over an ``rows x cols`` block.

    Diagonal blocks charge one triangular solve (``w^2`` multiply-adds per
    right-hand side); subdiagonal blocks charge the dense multiply
    (``2 r w`` per right-hand side). Exact integers — the trace replay
    reconciles these against worker metrics with equality, not tolerance.
    """
    if diag:
        return rows * cols * nrhs
    return 2 * rows * cols * nrhs


# ----------------------------------------------------------------------
# Sequential block substitution (the distributed solve's reference)
# ----------------------------------------------------------------------

def block_forward(chol: BlockCholesky, Y: np.ndarray) -> np.ndarray:
    """In-place forward substitution ``L Y = B`` over block panels.

    ``Y`` is the permuted right-hand side as an ``n x nrhs`` C-ordered
    array. Panels are solved in ascending order; panel K's update is one
    product of its stacked subdiagonal rows with ``Y_K``, subtracted once
    from ``Y[rows_below[K]]`` — so every row takes its updates in
    ascending source-panel order, the order the distributed solve
    reproduces by parking early arrivals.
    """
    panel_rows = chol.structure.numeric_plan().panel_rows
    for k, (c0, c1, rows) in enumerate(panel_rows):
        Yk = fsolve_kernel(chol.diag[k], Y[c0:c1])
        Y[c0:c1] = Yk
        Y[rows] -= fupd_kernel(chol.stacked[k], Yk)
    return Y


def block_backward(chol: BlockCholesky, X: np.ndarray,
                   cols=None) -> np.ndarray:
    """In-place backward substitution ``L^T X = Y`` over block panels
    ``cols`` (ascending; None for all), their rows below final in ``X``.

    Panels complete in descending order; panel K absorbs one product of
    its stacked subdiagonal rows' transpose with ``X[rows_below[K]]``
    before the triangular solve (a distributed rank's local pass).
    """
    panel_rows = chol.structure.numeric_plan().panel_rows
    for k in reversed(range(len(panel_rows)) if cols is None else cols):
        c0, c1, rows = panel_rows[k]
        B = X[c0:c1]
        B -= bupd_kernel(chol.stacked[k], X[rows])
        X[c0:c1] = bsolve_kernel(chol.diag[k], B)
    return X


def block_solve_permuted(chol: BlockCholesky, pb: np.ndarray) -> np.ndarray:
    """Forward + backward substitution on an already-permuted RHS.

    Returns a fresh ``n x nrhs`` C-ordered solution in permuted
    coordinates (the caller un-permutes).
    """
    Y = np.array(pb, dtype=np.float64, order="C", copy=True)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    block_forward(chol, Y)
    block_backward(chol, Y)
    return Y


def permute_rhs(b: np.ndarray, n: int, ordering):
    """The one place a right-hand side is checked and first permuted.

    Returns ``(pb, restore)``: ``b`` in the factorization's row order, and
    the map from a permuted solution (``n`` or ``n x nrhs``) back to
    ``b``'s row order and ``ndim``. ``ordering`` is an
    :class:`~repro.ordering.base.Ordering`, a permutation array, or None
    for identity. Raises ``ValueError`` for a ``b`` that is not ``n`` rows
    of one or two dimensions, has no column, is complex or holds a NaN or
    an Inf (the solve kernels do not scan for them) — before any
    substitution or worker process.
    """
    if np.iscomplexobj(b):  # casting would drop the imaginary part
        raise ValueError("rhs is complex; the factor solves real systems")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs has shape {b.shape}; matrix has {n} rows")
    if not b.size:
        raise ValueError(f"rhs has shape {b.shape}: no column to solve")
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if ordering is None:
        perm = None
    elif isinstance(ordering, Ordering):
        perm = ordering.perm
    else:
        perm = np.asarray(ordering)

    def restore(z: np.ndarray) -> np.ndarray:
        if b.ndim == 1 and z.ndim == 2:
            z = z[:, 0]
        if perm is None:
            return z
        x = np.empty_like(z)
        x[perm] = z
        return x

    return (b if perm is None else b[perm]), restore


def solve_with_factor(
    L: sparse.spmatrix | BlockCholesky,
    b: np.ndarray,
    ordering: Ordering | np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``A x = b`` where ``P A P^T = L L^T``.

    ``ordering`` is the permutation used during factorization (``None`` for
    identity). Accepts a single vector or a matrix of right-hand sides.
    ``L`` may be the assembled sparse factor or the
    :class:`~repro.numeric.blockfact.BlockCholesky` itself; the latter
    runs the block substitution path that the distributed solve is pinned
    against bit for bit.
    """
    if isinstance(L, BlockCholesky):
        n = int(L.partition.panel_ptr[-1])
        pb, restore = permute_rhs(b, n, ordering)
        return restore(block_solve_permuted(L, pb))

    L = L.tocsr()
    pb, restore = permute_rhs(b, L.shape[0], ordering)
    y = spsolve_triangular(L, pb, lower=True)
    return restore(spsolve_triangular(L.T.tocsr(), y, lower=False))
