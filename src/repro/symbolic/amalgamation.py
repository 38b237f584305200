"""Relaxed supernode amalgamation (Ashcraft & Grimes 1989).

Merges a supernode into its parent when the two are contiguous in the
(postordered) column order and the merge introduces only a small fraction of
explicit zeros. Amalgamation trades a little extra storage/arithmetic for
larger, more regular blocks — the paper uses it in all experiments (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.arrays import INDEX_DTYPE


@dataclass(frozen=True)
class AmalgamationParams:
    """Merge thresholds.

    ``small_width``: supernodes at most this wide merge under the looser
    ``frac_small`` zero-fraction bound; wider ones must satisfy ``frac``.
    """

    small_width: int = 8
    frac_small: float = 0.30
    frac: float = 0.05


def _sn_nnz(width: int, nbelow: int) -> int:
    """Dense nonzeros a supernode of ``width`` cols and ``nbelow`` rows stores."""
    return width * (width + 1) // 2 + width * nbelow


def amalgamate_supernodes(
    snode_ptr: np.ndarray,
    structs: list[np.ndarray],
    sparent: np.ndarray,
    params: AmalgamationParams | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merge supernodes; returns the new ``(snode_ptr, structs)``.

    ``structs[s]`` is the sorted array of row indices strictly below
    supernode s, as :func:`~repro.symbolic.structure.supernode_structures`
    computes it: what a child's structure holds beyond its parent's columns
    lies inside the parent's structure. A merged supernode therefore keeps
    the parent's rows unchanged (the child's rows inside the parent's column
    range join the dense triangle), and deciding a merge takes only widths
    and row counts.
    """
    params = params or AmalgamationParams()
    snode_ptr = np.asarray(snode_ptr)
    nsup = snode_ptr.shape[0] - 1
    if nsup == 0:
        return snode_ptr.astype(INDEX_DTYPE), []
    # Group state over plain ints. A merged supernode points at the group
    # that took it; the group keeps the identity of its topmost member and
    # its column range grows downwards.
    start = snode_ptr[:-1].tolist()
    end = snode_ptr[1:].tolist()  # exclusive
    nbelow = [int(r.shape[0]) for r in structs]
    parent_group = np.asarray(sparent).tolist()
    merged_into = [-1] * nsup

    for g in range(nsup):
        p = parent_group[g]
        if p == -1:
            continue
        while merged_into[p] != -1:
            p = merged_into[p]
        if start[p] != end[g]:
            continue  # not contiguous: g is not the last child of p
        w_c = end[g] - start[g]
        w_p = end[p] - start[p]
        new_nnz = _sn_nnz(w_c + w_p, nbelow[p])
        old_nnz = _sn_nnz(w_c, nbelow[g]) + _sn_nnz(w_p, nbelow[p])
        zeros = new_nnz - old_nnz
        limit = params.frac_small if w_c <= params.small_width else params.frac
        if zeros > 0 and zeros > limit * new_nnz:
            continue
        start[p] = start[g]
        merged_into[g] = p

    keep = [s for s in range(nsup) if merged_into[s] == -1]
    new_ptr = np.array(
        [start[s] for s in keep] + [end[keep[-1]]], dtype=INDEX_DTYPE
    )
    new_structs = [np.asarray(structs[s], dtype=INDEX_DTYPE) for s in keep]
    return new_ptr, new_structs
