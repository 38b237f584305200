"""Block-to-processor mappings: the paper's core contribution.

A Cartesian-product (CP) mapping sends block (I, J) to processor
``P(mapI(I), mapJ(J))``; this limits each block's communication to one
processor row plus one processor column. The traditional choice is the
symmetric 2-D cyclic map, which balances load poorly; the paper's heuristics
choose ``mapI`` and ``mapJ`` independently by greedy number partitioning.
"""

from repro.mapping.grid import ProcessorGrid, square_grid, best_grid
from repro.mapping.base import CartesianMap
from repro.mapping.cyclic import cyclic_map
from repro.mapping.heuristics import (
    HEURISTICS,
    heuristic_map,
    heuristic_vector,
    greedy_partition,
    mapping_heuristics,
    named_map,
)
from repro.mapping.balance import BalanceReport, balance_metrics
from repro.mapping.alternative import processor_aware_row_map
from repro.mapping.subcube import subtree_to_subcube_column_map

__all__ = [
    "ProcessorGrid",
    "square_grid",
    "best_grid",
    "CartesianMap",
    "cyclic_map",
    "HEURISTICS",
    "heuristic_map",
    "heuristic_vector",
    "greedy_partition",
    "mapping_heuristics",
    "named_map",
    "BalanceReport",
    "balance_metrics",
    "processor_aware_row_map",
    "subtree_to_subcube_column_map",
]
