"""Median and percentile selection used for every reported metric.

Plain nearest-rank selection on the sorted samples — no interpolation, so
a reported percentile is always a value that was measured.
"""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    """Median; the mean of the two middle samples for an even count."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0

