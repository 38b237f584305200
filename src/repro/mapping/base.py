"""The block mapping.

The paper's taxonomy (§2.4): an *arbitrary* mapping sends each block
anywhere; a *Cartesian product* (CP) mapping factors through independent row
and column maps; a *symmetric Cartesian* (SC) mapping additionally has
``Pr == Pc`` and ``mapI == mapJ``. Only CP structure is needed to bound the
communication fan-out at ``Pr + Pc``, and every mapping here is CP.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.grid import ProcessorGrid
from repro.util.arrays import INDEX_DTYPE


class CartesianMap:
    """CP mapping: ``owner(I, J) = grid.rank(mapI[I], mapJ[J])``."""

    def __init__(
        self,
        grid: ProcessorGrid,
        mapI: np.ndarray,
        mapJ: np.ndarray,
        label: str = "cartesian",
    ):
        mapI = np.ascontiguousarray(mapI, dtype=INDEX_DTYPE)
        mapJ = np.ascontiguousarray(mapJ, dtype=INDEX_DTYPE)
        if mapI.shape != mapJ.shape:
            raise ValueError("mapI and mapJ must have equal length (one per panel)")
        if mapI.size and (mapI.min() < 0 or mapI.max() >= grid.Pr):
            raise ValueError("mapI out of range for grid rows")
        if mapJ.size and (mapJ.min() < 0 or mapJ.max() >= grid.Pc):
            raise ValueError("mapJ out of range for grid columns")
        self.grid = grid
        self.npanels = mapI.shape[0]
        self.mapI = mapI
        self.mapJ = mapJ
        self.label = label

    def owner(self, I: int, J: int) -> int:
        """Linear rank of the processor owning block (I, J)."""
        return self.grid.rank(int(self.mapI[I]), int(self.mapJ[J]))

    def owner_array(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        return self.mapI[I] * self.grid.Pc + self.mapJ[J]

    @property
    def is_symmetric_cartesian(self) -> bool:
        """SC test (§2.4): square grid and identical row/column maps."""
        return self.grid.is_square and np.array_equal(self.mapI, self.mapJ)

    @property
    def name(self) -> str:
        return self.label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartesianMap({self.label!r}, grid={self.grid}, N={self.npanels})"
