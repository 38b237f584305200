"""The paper's per-block work model (§3.2).

``work[I, J]`` is the work performed by the *owner* of block (I, J): the
floating-point operations of every block operation whose destination is
(I, J), plus one thousand per distinct block operation. The 1000-op fixed
cost models per-operation overhead, which dominates for matrices with many
small blocks; the paper measured it from their factorization code.

Block operations and their flop counts (w = width of panel K, r_X = dense
rows of block (X, K)):

=============  ======================  =======================
operation      destination             flops
=============  ======================  =======================
BFAC(K, K)     (K, K)                  dense Cholesky of w x w
BDIV(I, K)     (I, K)                  r_I * w^2
BMOD(I, J, K)  (I, J), K < J <= I      2 * r_I * r_J * w
=============  ======================  =======================

Every operation of every panel is enumerated in one set of array passes
(the block pairs of all panels at once, by ``repeat`` and ``cumsum``), never
in a Python loop over panels or block pairs; the interpreted per-panel loop
is kept as the reference in ``tests/analysis_oracle.py``. This is the one
enumeration of the block operations: the task graph
(:class:`repro.fanout.tasks.TaskGraph`) reorders it into tasks, and the
critical path and bottom-level priorities sweep those tasks.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.structure import BlockStructure
from repro.util.arrays import INDEX_DTYPE

#: The fixed per-block-operation cost, in equivalent flops (paper §3.2).
OP_FIXED_COST = 1000


def chol_flops(w: int) -> int:
    """Exact flops of a dense w x w Cholesky (sqrt + divs + updates).

    Matches :func:`repro.symbolic.colcounts.factor_ops_from_counts` applied
    to a dense matrix of order w.
    """
    return w + w * (w - 1) + (w - 1) * w * (2 * w - 1) // 6


class WorkModel:
    """Per-block work of a block factorization, plus row/column aggregates.

    Attributes
    ----------
    dest_I, dest_J:
        Block coordinates of every nonzero block (I >= J), deduplicated.
    flops, nops, nmod:
        Per-block flops, total block-operation count, and BMOD count (the
        BMOD count doubles as the DES dependency counter).
    work:
        ``flops + OP_FIXED_COST * nops`` — the paper's measure.
    op_block, op_flops:
        The enumeration: per block operation, the block it writes and its
        flops — every BFAC(K) in panel order, then every BDIV(I, K) panel
        by panel in ``block_rows`` order, then every BMOD(I, J, K) panel by
        panel in row-major lower-triangle order of the panel's blocks.
    div_panel, div_count:
        Per BDIV: its panel K and the dense row count of its block.
    mod_i, mod_j:
        Per BMOD: the BDIVs (indices into the BDIV run) of its sources
        (I, K) and (J, K); ``mod_i == mod_j`` for a diagonal destination.
    """

    def __init__(self, structure: BlockStructure, op_fixed_cost: int = OP_FIXED_COST):
        self.structure = structure
        self.op_fixed_cost = op_fixed_cost
        part = structure.partition
        N = part.npanels
        widths = part.widths.astype(np.int64)

        # Every below-diagonal block (I, K), panel by panel: its block row
        # I, its dense row count r_I, its panel K and its place t in K.
        nblocks = np.array([br.shape[0] for br in structure.block_rows], dtype=np.int64)
        first = np.cumsum(nblocks) - nblocks
        rows = np.concatenate(structure.block_rows).astype(np.int64, copy=False)
        counts = np.concatenate(structure.block_counts).astype(np.int64, copy=False)
        panel = np.repeat(np.arange(N, dtype=np.int64), nblocks)
        t = np.arange(rows.shape[0], dtype=np.int64) - first[panel]
        wk = widths[panel]
        # BMOD(I, J, K), destination (I, J) for i >= j within K: block i
        # pairs with the t_i + 1 blocks of its panel up to itself.
        reps = t + 1
        ii = np.repeat(np.arange(rows.shape[0], dtype=np.int64), reps)
        jj = np.arange(ii.shape[0], dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps - first[panel], reps
        )
        ci, cj, w = counts[ii], counts[jj], wk[ii]

        keys = np.concatenate([
            np.arange(N, dtype=np.int64) * (N + 1),  # BFAC(K, K)
            rows * N + panel,  # BDIV(I, K)
            rows[ii] * N + rows[jj],  # BMOD(I, J, K)
        ])
        flops = np.concatenate([
            chol_flops(widths),
            counts * wk * wk,
            # Diagonal destinations (i == j) are symmetric rank-w updates
            # (SYRK): half the flops of the general GEMM case.
            np.where(ii == jj, ci * (ci + 1) * w, 2 * ci * cj * w),
        ])
        ops = np.ones(keys.shape[0], dtype=np.int64)
        mods = np.zeros(keys.shape[0], dtype=np.int64)
        mods[N + rows.shape[0]:] = 1

        ukeys, inv = np.unique(keys, return_inverse=True)
        self.dest_I = (ukeys // N).astype(INDEX_DTYPE)
        self.dest_J = (ukeys % N).astype(INDEX_DTYPE)
        self.flops = np.bincount(inv, weights=flops).astype(np.int64)
        self.nops = np.bincount(inv, weights=ops).astype(np.int64)
        self.nmod = np.bincount(inv, weights=mods).astype(np.int64)
        self.work = self.flops + self.op_fixed_cost * self.nops

        self.npanels = N
        self.workI = np.bincount(self.dest_I, weights=self.work, minlength=N)
        self.workJ = np.bincount(self.dest_J, weights=self.work, minlength=N)
        self.total_work = float(self.work.sum())
        self.total_flops = int(self.flops.sum())
        self.total_ops = int(self.nops.sum())
        self.op_block, self.op_flops = inv, flops
        self.div_panel, self.div_count = panel, counts
        self.mod_i, self.mod_j = ii, jj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkModel(blocks={self.dest_I.shape[0]}, "
            f"flops={self.total_flops:.3g}, ops={self.total_ops})"
        )
