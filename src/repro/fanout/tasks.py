"""The block fan-out task graph.

Tasks (§2.1): ``BFAC(K,K)`` factors a diagonal block, ``BDIV(I,K)`` solves a
subdiagonal block against the factored diagonal, ``BMOD(I,J,K)`` applies an
outer-product update. Every task runs at the *owner of its destination
block*; a task graph is therefore independent of the block mapping, and one
graph is reused across all mapping experiments.

The tasks are the :class:`~repro.blocks.workmodel.WorkModel`'s enumeration
of the block operations, put in task order by one stable sort on panel.
Panel K's tasks are one run, ``task_ptr[K]:task_ptr[K + 1]``: BFAC(K), then
BDIV(I, K) in ``block_rows`` order, then BMOD(I, J, K) in row-major
lower-triangle order of the panel's blocks. Every BMOD's sources are
BDIVs of its own run, so the critical path and the bottom-level priorities
are one sweep over the runs, forward and in reverse.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.workmodel import WorkModel
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
    task_ptr:
        Per panel K, where its run of tasks starts (length N + 1): the one
        statement of task order.
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
        widths = wm.structure.partition.widths.astype(np.int64)
        N = self.npanels = wm.npanels
        self.nblocks = wm.dest_I.shape[0]
        ndiv, nmod = wm.div_panel.shape[0], wm.mod_i.shape[0]
        div_block = wm.op_block[N:N + ndiv]

        # The enumeration is BFACs, BDIVs, BMODs, each panel by panel: a
        # stable sort on panel makes each panel one run in that order.
        panel = np.concatenate([
            np.arange(N, dtype=np.int64), wm.div_panel, wm.div_panel[wm.mod_i],
        ])
        order = np.argsort(panel, kind="stable")
        self.task_ptr = np.searchsorted(
            panel[order], np.arange(N + 1)
        ).astype(INDEX_DTYPE)
        self.task_kind = np.repeat(
            np.array([BFAC, BDIV, BMOD], dtype=np.int8), [N, ndiv, nmod]
        )[order]
        self.task_block = wm.op_block[order]
        self.task_flops = wm.op_flops[order]
        none = np.full(N + ndiv, -1, dtype=np.int64)
        self.task_src1 = np.concatenate([none, div_block[wm.mod_i]])[order]
        self.task_src2 = np.concatenate([
            none, np.where(wm.mod_i == wm.mod_j, -1, div_block[wm.mod_j]),
        ])[order]
        self.ntasks = self.task_kind.shape[0]
        self.subdiag_ptr = np.searchsorted(
            wm.div_panel, np.arange(N + 1)
        ).astype(INDEX_DTYPE)
        self.subdiag_blocks = div_block

        # Per-block message size.
        self.diag_block = wm.op_block[:N]
        self.block_words = np.zeros(self.nblocks, dtype=np.int64)
        self.block_words[self.diag_block] = widths * (widths + 1) // 2
        self.block_words[div_block] = wm.div_count * widths[wm.div_panel]

        # Per-block special task ids.
        tids = np.arange(self.ntasks, dtype=np.int64)
        self.bfac_task = np.full(self.nblocks, -1, dtype=np.int64)
        self.bfac_task[self.diag_block] = self.task_ptr[:-1]
        self.bdiv_task = np.full(self.nblocks, -1, dtype=np.int64)
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

    def panel_runs(self) -> list[tuple[int, int, int]]:
        """Per panel K, ``(fac, mod, end)``: task ``fac`` is BFAC(K), tasks
        ``fac + 1:mod`` its BDIVs and ``mod:end`` its BMODs."""
        start, end = self.task_ptr[:-1], self.task_ptr[1:]
        mod = start + 1 + np.diff(self.subdiag_ptr)
        return list(zip(start.tolist(), mod.tolist(), end.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskGraph(N={self.npanels}, blocks={self.nblocks}, tasks={self.ntasks})"
