"""Dense block kernels.

These are the Level-3 BLAS operations of §3.1 — the paper uses hand-tuned
DPOTRF/DTRSM/DGEMM; we call the same LAPACK/BLAS routines through the
float64 handles scipy exposes, resolved once at import: ``dpotrf`` for
BFAC, ``dtrtrs`` for BDIV (and for the two solve kernels of
:mod:`repro.numeric.solve`, through :func:`trtrs_lower`), ``dgemm`` / ``@``
for BMOD. Each call is the one ``scipy.linalg.cholesky`` /
``solve_triangular`` would make for the same operands — same routine,
same operand layout, so the same bits — without the per-call argument
checking of those wrappers, which cost several times the LAPACK call at
the block sizes a sparse factor has. ``info`` is still read after every
call and raised as the wrappers raise it. No kernel scans its operands for
NaN/Inf: a right-hand side is checked once where it enters
(:func:`repro.numeric.solve.permute_rhs`) and a factor once where it is
assembled (:meth:`BlockCholesky.to_csc`). Each kernel returns its flop
count so callers can cross-check the work model.

All call sites (the sequential :class:`~repro.numeric.blockfact.BlockCholesky`
and every runtime worker, on either transport) share these kernels, so the
same operations on the same operands produce bitwise-identical blocks
everywhere. A BMOD kernel call is a whole panel update, the rows of one
source panel stacked over one or more destination blocks; a BDIV kernel
call is a whole panel factor's share, the rows of one column a processor
owns, stacked.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dgemm

from repro.blocks.workmodel import chol_flops

_potrf, _trtrs = get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A pivot ``dpotrf`` met is not positive. ``minor`` is the order of
    the leading minor of the diagonal block that is not positive definite;
    ``panel`` and ``column`` — set where the block's place in the factor is
    known (:meth:`repro.numeric.blockfact.BlockCholesky.bfac`) — are that
    block's panel and the pivot's global column, in the factor's permuted
    order."""

    def __init__(self, message: str, minor: int,
                 panel: int | None = None, column: int | None = None):
        super().__init__(message)
        self.minor, self.panel, self.column = minor, panel, column

    def __reduce__(self):
        return type(self), (self.args[0], self.minor, self.panel, self.column)


def bfac_kernel(D: np.ndarray) -> tuple[np.ndarray, int]:
    """BFAC: dense Cholesky of a diagonal block. Returns (L, flops).

    ``D`` must be symmetric positive definite (full square storage) and is
    consumed. ``dpotrf`` factors a Fortran-ordered copy (``D`` itself when
    it already is one); ``L`` comes back C-contiguous with its strictly
    upper triangle zeroed — the canonical layout every kernel that reads
    a diagonal block asks for (see :func:`trtrs_lower`), so none of them
    copies it again. A pivot that is not positive raises
    :class:`NotPositiveDefiniteError`.
    """
    L, info = _potrf(D, lower=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite",
            info,
        )
    if info < 0:
        raise ValueError(
            f"LAPACK reported an illegal value in {-info}-th argument "
            'on entry to "POTRF".'
        )
    return np.ascontiguousarray(L), chol_flops(L.shape[0])


def trtrs_lower(
    L_KK: np.ndarray, B: np.ndarray, trans: int, overwrite_b: bool = False
) -> np.ndarray:
    """``L_KK^{-1} B`` (``trans=0``) or ``L_KK^{-T} B`` (``trans=1``) for a
    lower-triangular ``L_KK``; the result is Fortran-ordered, and shares
    ``B``'s buffer when ``overwrite_b`` and ``B`` is Fortran-contiguous.

    ``L_KK`` is forced C-contiguous first (a no-op for a block out of
    :func:`bfac_kernel`, a link or an arena slot): LAPACK wants Fortran
    order, so a C-ordered triangle is solved as its transpose — an upper
    triangle, the opposite ``trans`` — while an F-ordered one takes the
    plain call, and the two round differently. One canonical layout is
    what makes the same task compute the same bits on every rank. A
    block of width 1 is both orders at once and takes the plain call, as
    in ``scipy.linalg.solve_triangular``.
    """
    L = np.ascontiguousarray(L_KK)
    if L.flags.f_contiguous:
        x, info = _trtrs(L, B, lower=1, trans=trans, overwrite_b=overwrite_b)
    else:
        x, info = _trtrs(
            L.T, B, lower=0, trans=1 - trans, overwrite_b=overwrite_b
        )
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal trtrs"
        )
    return x


def bdiv_kernel(B: np.ndarray, L_KK: np.ndarray) -> tuple[np.ndarray, int]:
    """BDIV: ``B <- B * L_KK^{-T}`` (triangular solve from the right).

    ``B`` is the r x w subdiagonal block, ``L_KK`` the factored w x w
    diagonal. A writable C-contiguous ``B`` is consumed: ``B.T`` is then
    F-contiguous, so ``L_KK X^T = B^T`` is solved in place and the result
    shares ``B``'s buffer. A read-only or strided ``B`` is copied and left
    alone. flops = r * w^2.
    """
    out = trtrs_lower(L_KK, B.T, 0, overwrite_b=B.flags.writeable).T
    r, w = out.shape
    return out, r * w * w


def bmod_kernel(L_IK: np.ndarray, L_JK: np.ndarray) -> tuple[np.ndarray, int]:
    """BMOD update term ``L_IK @ L_JK^T``. Returns (U, flops).

    The caller subtracts U from the destination block at the right row and
    column positions (the scatter path — when the destination rows are not
    contiguous, see :func:`bmod_kernel_into`). flops = 2 * r_I * r_J * w.
    """
    U = L_IK @ L_JK.T
    rI, w = L_IK.shape
    rJ = L_JK.shape[0]
    return U, 2 * rI * rJ * w


def bmod_kernel_into(
    L_IK: np.ndarray, L_JK: np.ndarray, out: np.ndarray
) -> int:
    """BMOD applied in place: ``out -= L_IK @ L_JK^T``. Returns flops.

    Single fused ``dgemm`` (alpha=-1, beta=1) accumulating straight into
    the destination — no update-term temporary, no scatter. ``out`` must be
    a C-contiguous writable slice of the destination block covering exactly
    the update's rows and columns; ``out.T`` is then F-contiguous, and
    BLAS computes ``out.T -= L_JK @ L_IK^T`` without copying ``c``.
    """
    res = dgemm(
        alpha=-1.0, a=L_JK, b=L_IK, trans_b=1,
        beta=1.0, c=out.T, overwrite_c=1,
    )
    if not np.shares_memory(res, out):  # pragma: no cover - layout guard
        out[:] = res.T
    rI, w = L_IK.shape
    rJ = L_JK.shape[0]
    return 2 * rI * rJ * w
