"""Shared utilities: integer array helpers, table formatting, validation."""

from repro.util.arrays import (
    as_index_array,
    invert_permutation,
    is_permutation,
)
from repro.util.formatting import format_table

__all__ = [
    "as_index_array",
    "invert_permutation",
    "is_permutation",
    "format_table",
]
