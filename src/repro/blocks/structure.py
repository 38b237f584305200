"""Sparse block structure of the supernodal factor.

For each block column (panel) K this records the nonzero block rows, the
number of dense rows each block holds, and the global row indices — enough
for the work model, the task graph, and the numeric block factorization.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.partition import BlockPartition
from repro.blocks.plan import NumericPlan
from repro.util.arrays import INDEX_DTYPE


class BlockStructure:
    """Block-sparse structure of L under a :class:`BlockPartition`.

    For panel K (columns ``c0..c1-1`` of supernode s with columns ``a..b-1``)
    the dense rows below the diagonal block are the remaining supernode
    columns ``c1..b-1`` followed by the supernode's below-rows — both sorted,
    so their concatenation is sorted.

    Attributes (per panel K)
    ----------
    rows_below[K]:
        Sorted global row indices strictly below the diagonal block.
    block_rows[K]:
        Sorted unique block-row indices I > K with a nonzero block (I, K).
    block_counts[K]:
        Dense row count of each such block.
    row_splits[K]:
        Offsets into ``rows_below[K]``: block ``(block_rows[K][t], K)`` holds
        rows ``rows_below[K][row_splits[K][t] : row_splits[K][t+1]]``.
    """

    #: The lazily compiled :class:`NumericPlan` — derived state, resident
    #: where it was built and never pickled.
    _numeric_plan: NumericPlan | None = None

    def __init__(self, partition: BlockPartition):
        self.partition = partition
        sf = partition.symbolic
        ptr = partition.panel_ptr
        p_of = partition.panel_of_col
        N = partition.npanels

        self.rows_below: list[np.ndarray] = []
        self.block_rows: list[np.ndarray] = []
        self.block_counts: list[np.ndarray] = []
        self.row_splits: list[np.ndarray] = []

        snode_ptr = sf.snode_ptr
        for k in range(N):
            c1 = int(ptr[k + 1])
            s = int(partition.panel_snode[k])
            b = int(snode_ptr[s + 1])
            intra = np.arange(c1, b, dtype=INDEX_DTYPE)
            rows = np.concatenate([intra, sf.snode_rows[s]]) if intra.size else sf.snode_rows[s]
            self.rows_below.append(rows)
            if rows.size:
                brows = p_of[rows]
                # rows sorted => brows nondecreasing; run-length encode.
                change = np.flatnonzero(brows[1:] != brows[:-1]) + 1
                starts = np.concatenate([[0], change, [rows.shape[0]]]).astype(INDEX_DTYPE)
                self.block_rows.append(brows[starts[:-1]])
                self.block_counts.append(np.diff(starts))
                self.row_splits.append(starts)
            else:
                empty = np.empty(0, dtype=INDEX_DTYPE)
                self.block_rows.append(empty)
                self.block_counts.append(empty)
                self.row_splits.append(np.zeros(1, dtype=INDEX_DTYPE))

    @property
    def npanels(self) -> int:
        return self.partition.npanels

    @property
    def num_blocks(self) -> int:
        """Total nonzero blocks, diagonal blocks included."""
        return self.npanels + sum(br.shape[0] for br in self.block_rows)

    def block_row_span(self, k: int, t: int) -> np.ndarray:
        """Global row indices of the t-th below-diagonal block of panel k."""
        s = self.row_splits[k]
        return self.rows_below[k][int(s[t]) : int(s[t + 1])]

    def numeric_plan(self) -> NumericPlan:
        """The pattern-only index structure of the numeric phase, compiled
        on first use and kept for the life of this object."""
        plan = self._numeric_plan
        if plan is None:
            plan = self._numeric_plan = NumericPlan(self)
        return plan

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_numeric_plan", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockStructure(N={self.npanels}, blocks={self.num_blocks})"
