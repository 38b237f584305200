"""Supernode detection.

A supernode is a maximal set of adjacent columns [a..b] such that
``struct(L(:,j+1)) = struct(L(:,j)) \\ {j}`` for all j in [a..b-1] — a dense
lower-triangular diagonal block with identical row structure below it. With a
postordered elimination tree, columns j and j+1 belong to the same supernode
iff ``parent[j] == j+1`` and ``cc[j+1] == cc[j] - 1``.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import INDEX_DTYPE


def detect_supernodes(parent: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """Supernode boundaries: returns ``snode_ptr`` with S+1 entries.

    Supernode s spans columns ``snode_ptr[s] .. snode_ptr[s+1]-1``.
    """
    parent = np.asarray(parent)
    cc = np.asarray(cc)
    n = parent.shape[0]
    if n == 0:
        return np.zeros(1, dtype=INDEX_DTYPE)
    # new_start[j] == True when column j begins a supernode.
    prev = np.arange(n - 1)
    same = (parent[prev] == prev + 1) & (cc[prev + 1] == cc[prev] - 1)
    starts = np.concatenate([[True], ~same])
    boundaries = np.flatnonzero(starts)
    return np.concatenate([boundaries, [n]]).astype(INDEX_DTYPE)


def snode_of_column(snode_ptr: np.ndarray, n: int) -> np.ndarray:
    """Map each column to its supernode index."""
    snode_ptr = np.asarray(snode_ptr)
    out = np.zeros(n, dtype=INDEX_DTYPE)
    out[snode_ptr[1:-1]] = 1
    return np.cumsum(out) if n else out


def supernode_parents(
    snode_ptr: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Parent supernode of each supernode (-1 for roots).

    The parent supernode contains ``parent[last column of s]``.
    """
    snode_ptr = np.asarray(snode_ptr)
    parent = np.asarray(parent)
    col2s = snode_of_column(snode_ptr, parent.shape[0])
    above = parent[snode_ptr[1:] - 1]
    return np.where(above == -1, -1, col2s[above]).astype(INDEX_DTYPE)
