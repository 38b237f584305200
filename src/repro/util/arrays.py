"""Small integer-array utilities used across the symbolic and mapping layers.

Everything here operates on ``numpy.int64`` index arrays; the symbolic layer
passes sorted row-index arrays around constantly, so these helpers are kept
allocation-light (views where possible, single merged output otherwise).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

INDEX_DTYPE = np.int64


@lru_cache(maxsize=1024)
def tril_flat(w: int) -> np.ndarray:
    """Positions of the lower triangle (diagonal included) of a C-ordered
    ``w x w`` array in its flattened form, in ``np.tril_indices`` order —
    the packed layout of a diagonal block on the wire and in an arena
    slot. ``a.take(tril_flat(w))`` packs a square of any memory layout,
    ``flat[tril_flat(w)] = words`` unpacks. One shared, read-only array
    per width."""
    rows, cols = np.tril_indices(w)
    flat = rows * w + cols
    flat.flags.writeable = False
    return flat


def as_index_array(values) -> np.ndarray:
    """Return ``values`` as a contiguous int64 index array."""
    arr = np.ascontiguousarray(values, dtype=INDEX_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D index array, got shape {arr.shape}")
    return arr


def is_permutation(perm) -> bool:
    """True if ``perm`` is a permutation of ``0..len(perm)-1``."""
    perm = np.asarray(perm)
    if perm.ndim != 1:
        return False
    n = perm.shape[0]
    seen = np.zeros(n, dtype=bool)
    valid = (perm >= 0) & (perm < n)
    if not valid.all():
        return False
    seen[perm] = True
    return bool(seen.all())


def invert_permutation(perm) -> np.ndarray:
    """Return the inverse of permutation ``perm`` (perm[i] = new position of i).

    ``inv[perm[i]] = i``; raises ``ValueError`` when ``perm`` is not a
    permutation.
    """
    perm = as_index_array(perm)
    n = perm.shape[0]
    inv = np.full(n, -1, dtype=INDEX_DTYPE)
    inv[perm] = np.arange(n, dtype=INDEX_DTYPE)
    if (inv < 0).any():
        raise ValueError("not a permutation")
    return inv


def entry_columns(indptr: np.ndarray) -> np.ndarray:
    """Column of every stored entry of a CSC matrix (row, of a CSR one)."""
    counts = np.diff(indptr)
    return np.repeat(np.arange(counts.shape[0], dtype=INDEX_DTYPE), counts)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of an int array, which is sorted in place.

    The stable sort is near linear on input made of a few ordered runs.
    """
    values.sort(kind="stable")
    keep = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
