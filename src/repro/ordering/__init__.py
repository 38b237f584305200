"""Fill-reducing orderings.

The paper pre-orders grid problems with nested dissection (asymptotically
optimal for grids) and irregular problems with multiple minimum degree; both
are implemented here, plus the natural (identity) baseline.
"""

from repro.ordering.base import (
    ORDERINGS,
    Ordering,
    order_problem,
    permute_spd,
    resolve_ordering,
)
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.minimum_degree import minimum_degree

__all__ = [
    "ORDERINGS",
    "Ordering",
    "order_problem",
    "permute_spd",
    "resolve_ordering",
    "nested_dissection",
    "minimum_degree",
]
