"""The block fan-out task graph.

Tasks (§2.1): ``BFAC(K,K)`` factors a diagonal block, ``BDIV(I,K)`` solves a
subdiagonal block against the factored diagonal, ``BMOD(I,J,K)`` applies an
outer-product update. Every task runs at the *owner of its destination
block*; a task graph is therefore independent of the block mapping, and one
graph is reused across all mapping experiments.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.workmodel import WorkModel, chol_flops
from repro.util.arrays import INDEX_DTYPE

BFAC, BDIV, BMOD = 0, 1, 2


class TaskGraph:
    """Tasks, dependency counters, and source-to-task linkage.

    Attributes
    ----------
    task_kind, task_block, task_flops:
        Per task: kind code, destination block index (into the WorkModel's
        block arrays), flop count.
    task_src1, task_src2:
        BMOD source block indices (``src2 == -1`` for the single-source
        diagonal update BMOD(I,I,K)); -1 for BFAC/BDIV.
    dep_ptr, dep_tasks:
        CSR linkage: completing block b feeds tasks
        ``dep_tasks[dep_ptr[b]:dep_ptr[b+1]]``.
    bfac_task, bdiv_task:
        Per block: its BFAC task (diagonal blocks) or BDIV task (subdiagonal
        blocks), -1 otherwise.
    block_words:
        Dense words a block occupies (message payload when sent).
    diag_block:
        Per panel: the id of its diagonal block.
    subdiag_ptr, subdiag_blocks:
        CSR over panels: the subdiagonal block indices of panel K, i.e. the
        recipients of ``L_KK`` after BFAC(K).
    """

    def __init__(self, wm: WorkModel):
        self.workmodel = wm
        structure = wm.structure
        part = structure.partition
        N = part.npanels
        widths = part.widths.astype(np.int64)
        self.npanels = N
        self.nblocks = wm.dest_I.shape[0]
        key_lookup = wm._key_lookup

        kinds: list[np.ndarray] = []
        blocks: list[np.ndarray] = []
        flops: list[np.ndarray] = []
        src1: list[np.ndarray] = []
        src2: list[np.ndarray] = []

        # Per-block message size.
        self.block_words = np.zeros(self.nblocks, dtype=np.int64)
        diag_mask = wm.dest_I == wm.dest_J
        w_of = widths[wm.dest_J]
        self.block_words[diag_mask] = (
            w_of[diag_mask] * (w_of[diag_mask] + 1) // 2
        )

        subdiag_ptr = np.zeros(N + 1, dtype=INDEX_DTYPE)
        subdiag_chunks: list[np.ndarray] = []

        for k in range(N):
            w = int(widths[k])
            brows = structure.block_rows[k]
            counts = structure.block_counts[k].astype(np.int64)
            m = brows.shape[0]
            bid = np.fromiter(
                (key_lookup[int(i) * N + k] for i in brows),
                count=m,
                dtype=np.int64,
            )
            diag_bid = key_lookup[k * N + k]
            self.block_words[bid] = counts * w

            # BFAC(K, K)
            kinds.append(np.array([BFAC], dtype=np.int8))
            blocks.append(np.array([diag_bid], dtype=np.int64))
            flops.append(np.array([chol_flops(w)], dtype=np.int64))
            src1.append(np.array([-1], dtype=np.int64))
            src2.append(np.array([-1], dtype=np.int64))

            subdiag_ptr[k + 1] = subdiag_ptr[k] + m
            subdiag_chunks.append(bid)
            if m == 0:
                continue
            # BDIV(I, K)
            kinds.append(np.full(m, BDIV, dtype=np.int8))
            blocks.append(bid)
            flops.append(counts * w * w)
            src1.append(np.full(m, -1, dtype=np.int64))
            src2.append(np.full(m, -1, dtype=np.int64))
            # BMOD(I, J, K) for i >= j
            ii, jj = np.tril_indices(m)
            dest = np.fromiter(
                (
                    key_lookup[int(brows[a]) * N + int(brows[b])]
                    for a, b in zip(ii, jj)
                ),
                count=ii.shape[0],
                dtype=np.int64,
            )
            kinds.append(np.full(ii.shape[0], BMOD, dtype=np.int8))
            blocks.append(dest)
            flops.append(
                np.where(
                    ii == jj,
                    counts[ii] * (counts[ii] + 1) * w,
                    2 * counts[ii] * counts[jj] * w,
                )
            )
            s1 = bid[ii]
            s2 = np.where(ii == jj, -1, bid[jj])
            src1.append(s1)
            src2.append(s2)

        self.task_kind = np.concatenate(kinds)
        self.task_block = np.concatenate(blocks)
        self.task_flops = np.concatenate(flops)
        self.task_src1 = np.concatenate(src1)
        self.task_src2 = np.concatenate(src2)
        self.ntasks = self.task_kind.shape[0]
        self.subdiag_ptr = subdiag_ptr
        self.subdiag_blocks = (
            np.concatenate(subdiag_chunks)
            if subdiag_chunks
            else np.empty(0, dtype=np.int64)
        )

        # Per-block special task ids.
        self.bfac_task = np.full(self.nblocks, -1, dtype=np.int64)
        self.bdiv_task = np.full(self.nblocks, -1, dtype=np.int64)
        tids = np.arange(self.ntasks, dtype=np.int64)
        fac = self.task_kind == BFAC
        self.bfac_task[self.task_block[fac]] = tids[fac]
        div = self.task_kind == BDIV
        self.bdiv_task[self.task_block[div]] = tids[div]

        # Source-block -> dependent-BMOD-task CSR.
        mod = self.task_kind == BMOD
        mod_ids = tids[mod]
        pairs_src = np.concatenate([self.task_src1[mod], self.task_src2[mod]])
        pairs_tid = np.concatenate([mod_ids, mod_ids])
        keep = pairs_src >= 0
        pairs_src, pairs_tid = pairs_src[keep], pairs_tid[keep]
        order = np.argsort(pairs_src, kind="stable")
        pairs_src, pairs_tid = pairs_src[order], pairs_tid[order]
        self.dep_ptr = np.searchsorted(
            pairs_src, np.arange(self.nblocks + 1)
        ).astype(INDEX_DTYPE)
        self.dep_tasks = pairs_tid

        # Initial missing-source count per task: BMOD needs its sources
        # (1 when diagonal-destination, else 2); BFAC/BDIV have none here
        # (BDIV's diagonal dependency is ``FanoutState.diag_ready``).
        self.task_missing_init = np.zeros(self.ntasks, dtype=np.int32)
        self.task_missing_init[mod] = np.where(self.task_src2[mod] >= 0, 2, 1)

        # Per-block panel coordinates, handy for the simulator.
        self.block_I = wm.dest_I
        self.block_J = wm.dest_J
        self.nmod = wm.nmod
        self.diag_block = np.full(N, -1, dtype=np.int64)
        self.diag_block[wm.dest_J[diag_mask]] = np.flatnonzero(diag_mask)

    def validate(self) -> None:
        """Internal consistency checks (used by the test suite)."""
        mod_counts = np.bincount(
            self.task_block[self.task_kind == BMOD], minlength=self.nblocks
        )
        if not np.array_equal(mod_counts, self.nmod):
            raise AssertionError("BMOD task count disagrees with WorkModel.nmod")
        diag = self.block_I == self.block_J
        if not (self.bfac_task[diag] >= 0).all():
            raise AssertionError("missing BFAC task for a diagonal block")
        if not (self.bdiv_task[~diag] >= 0).all():
            raise AssertionError("missing BDIV task for a subdiagonal block")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph(N={self.npanels}, blocks={self.nblocks}, tasks={self.ntasks})"
