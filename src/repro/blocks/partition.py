"""Panel partition of the columns (and identically the rows).

Each supernode wider than the block size B is split into panels of width as
close to B as possible; narrower supernodes become single panels ("column
subsets are always subsets of supernodes", §3.2). The row partition reuses
the same boundaries, so the diagonal blocks are square.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.etree import tree_depths
from repro.symbolic.structure import SymbolicFactor
from repro.symbolic.supernodes import supernode_parents
from repro.util.arrays import INDEX_DTYPE


class BlockPartition:
    """Partition of columns 0..n-1 into N contiguous panels.

    Attributes
    ----------
    panel_ptr:
        Length N+1; panel K spans columns ``panel_ptr[K] .. panel_ptr[K+1]-1``.
    panel_snode:
        Supernode that contains each panel.
    panel_of_col:
        Inverse map, length n.
    block_size:
        The requested B.
    """

    def __init__(self, sf: SymbolicFactor, block_size: int = 48):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self._split(sf)

    def target_width(self, depth: int, width: int) -> int:
        """The panel width B a supernode of ``width`` columns at
        ``depth`` in the supernode tree (roots at 0) is split by: the
        constant B here (§5's variable B overrides this alone)."""
        return self.block_size

    def _split(self, sf: SymbolicFactor) -> None:
        """Cut each supernode into ``ceil(w / B)`` panels, B its
        :meth:`target_width` (at least 1), widths differing by at most
        one, and build the panel arrays."""
        self.symbolic = sf
        ptr = sf.snode_ptr.tolist()
        sparent = supernode_parents(sf.snode_ptr, sf.parent)
        depths = tree_depths(sparent).tolist()
        boundaries: list[int] = [0]
        snode_ids: list[int] = []
        for s, depth in enumerate(depths):
            a, b = ptr[s], ptr[s + 1]
            w = b - a
            B = max(1, int(self.target_width(depth, w)))
            npanels = max(1, -(-w // B))  # ceil
            base, extra = divmod(w, npanels)
            pos = a
            for k in range(npanels):
                pos += base + (1 if k < extra else 0)
                boundaries.append(pos)
                snode_ids.append(s)
            assert pos == b
        self.panel_ptr = np.asarray(boundaries, dtype=INDEX_DTYPE)
        self.panel_snode = np.asarray(snode_ids, dtype=INDEX_DTYPE)
        self.panel_of_col = np.zeros(sf.n, dtype=INDEX_DTYPE)
        if self.npanels > 0:
            marks = np.zeros(sf.n, dtype=INDEX_DTYPE)
            marks[self.panel_ptr[1:-1]] = 1
            self.panel_of_col = np.cumsum(marks)

    @property
    def npanels(self) -> int:
        return self.panel_ptr.shape[0] - 1

    def width(self, k: int) -> int:
        return int(self.panel_ptr[k + 1] - self.panel_ptr[k])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.panel_ptr)

    def panel_depths(self) -> np.ndarray:
        """Elimination-tree depth of each panel (depth of its last column, the
        shallowest, so a root panel has depth 0).

        This is the key used by the Increasing Depth (ID) mapping heuristic.
        """
        return self.symbolic.depth[self.panel_ptr[1:] - 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockPartition(N={self.npanels}, B={self.block_size})"


def make_partition(
    sf: SymbolicFactor,
    block_policy: str = "uniform",
    block_size: int = 48,
) -> BlockPartition:
    """``BlockPartition(sf, block_size)``, the one panel rule.

    ``block_policy`` survives only because the benchmark's analysis row
    still passes ``"uniform"``; any other value is a ``ValueError``. The
    next change to the benchmark drops the keyword (ROADMAP item 19).
    """
    if block_policy != "uniform":
        raise ValueError(
            f"unknown block_policy {block_policy!r}; expected 'uniform'"
        )
    return BlockPartition(sf, block_size)
