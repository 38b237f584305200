"""Utilities for building and checking symmetric positive definite matrices."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.util.arrays import entry_columns


def is_symmetric_pattern(A: sparse.spmatrix, tol: float = 0.0) -> bool:
    """True when ``A`` has a structurally and numerically symmetric pattern."""
    A = A.tocsr()
    diff = (A - A.T).tocoo()
    if diff.nnz == 0:
        return True
    return bool(np.max(np.abs(diff.data)) <= tol)


def symmetric_csc(A: sparse.spmatrix) -> sparse.csc_matrix:
    """``A`` in CSC form with both triangles of its symmetric pattern stored.

    A structurally symmetric matrix comes back as it is (same arrays when it
    already is CSC). A strictly lower or upper triangular one is taken as
    half of a symmetric matrix and mirrored, ``T + T.T - diag(T)``. Anything
    else — not square, empty, or stored entries whose transposes are not
    stored — raises ``ValueError``.
    """
    A = A.tocsc()
    n = A.shape[0]
    if n != A.shape[1]:
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("matrix is empty (0 x 0)")
    # The CSC form of the transpose comes out of one counting pass with
    # sorted columns; A's pattern is symmetric when it reads the same.
    At = A.T.tocsc()
    As = A if A.has_sorted_indices else At.T.tocsc()
    if np.array_equal(At.indptr, As.indptr) and np.array_equal(
        At.indices, As.indices
    ):
        return A
    col = entry_columns(A.indptr)
    if (A.indices > col).any() and (A.indices < col).any():
        raise ValueError(
            "matrix pattern is not symmetric: pass both triangles, or "
            "exactly one of them"
        )
    return (A + At - sparse.diags(A.diagonal())).tocsc()


def make_spd(A: sparse.spmatrix, shift: float = 1.0) -> sparse.csc_matrix:
    """Return a strictly diagonally dominant (hence SPD) version of ``A``.

    The pattern is symmetrized (``A + A.T``), off-diagonal magnitudes are
    preserved, and the diagonal is set to ``rowsum(|offdiag|) + shift``.
    Diagonal dominance is the standard trick for turning an arbitrary
    symmetric pattern into an SPD test matrix without changing its structure.
    """
    A = A.tocsr()
    S = (A + A.T) * 0.5
    S = S.tolil()
    S.setdiag(0.0)
    S = S.tocsr()
    rowsums = np.asarray(np.abs(S).sum(axis=1)).ravel()
    D = sparse.diags(rowsums + shift)
    return (S + D).tocsc()


def random_spd_sparse(
    n: int,
    density: float = 0.05,
    seed: int = 0,
    shift: float = 1.0,
) -> sparse.csc_matrix:
    """Random sparse SPD matrix with a symmetric pattern (for tests).

    ``density`` controls the expected off-diagonal fill of one triangle.
    """
    rng = np.random.default_rng(seed)
    nnz_target = max(0, int(density * n * (n - 1) / 2))
    rows = rng.integers(0, n, size=nnz_target * 2)
    cols = rng.integers(0, n, size=nnz_target * 2)
    mask = rows > cols
    rows, cols = rows[mask][:nnz_target], cols[mask][:nnz_target]
    vals = rng.standard_normal(rows.shape[0])
    L = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return make_spd(L + L.T, shift=shift)
