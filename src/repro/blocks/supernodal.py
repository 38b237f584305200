"""Structure-aware variable blocking: panels that follow the supernodes.

The uniform policy (:class:`~repro.blocks.partition.BlockPartition`) splits
every supernode into near-even panels of a fixed target width B. That keeps
dgemm tile shapes predictable but wastes the structure: a 200-column
separator supernode becomes five thin 40-column panels when one or two wide
panels would feed much larger dense updates, and a 50-column supernode gets
chopped at 48 + 2, leaving a sliver panel whose BMODs are all overhead.

:class:`SupernodalPartition` instead lets panel widths track the supernode
widths directly, clamped to ``[min_width, max_width]``:

* a supernode no wider than ``max_width`` becomes a single panel — the panel
  IS the supernode, the §3.2 invariant ("column subsets are subsets of
  supernodes") trivially holds;
* a wider supernode is cut greedily into ``max_width`` panels; if that would
  leave a trailing sliver thinner than ``min_width``, the sliver is merged
  with the last full panel and the combined span re-split evenly into two
  panels (both land in ``[min_width, max_width]`` because the constructor
  enforces ``max_width >= 2 * min_width``).

Supernodes thinner than ``min_width`` are *not* merged across supernode
boundaries here — that would break the subset invariant every downstream
layer (block structure, task graph, arena layout) relies on. Absorbing thin
supernodes is the symbolic layer's job: relaxed amalgamation
(:mod:`repro.symbolic.amalgamation`) merges a child supernode into its
parent when the extra fill is cheap, which is exactly the structure-aware
coarsening this partitioner then follows. Run with ``amalgamate=True``
(the default) for the intended pairing.

:func:`make_partition` is the single factory every layer above uses to turn
a ``block_policy`` knob into a partition, so the driver, the workers, and
the service derive identical layouts from the same (policy, knobs) tuple.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.partition import BlockPartition
from repro.symbolic.structure import SymbolicFactor

#: Blocking policies understood by :func:`make_partition` (and by every
#: ``block_policy`` knob threaded through the solver, service, and CLI).
BLOCK_POLICIES = ("uniform", "supernodal")

#: The supernodal policy's minimum panel width. Under
#: :func:`make_partition` the maximum is ``2 * block_size`` (at least
#: ``2 * SUPERNODAL_MIN_WIDTH``), so the policy's widest panels stay
#: comparable to the uniform sweep it is benched against.
SUPERNODAL_MIN_WIDTH = 16


class SupernodalPartition(BlockPartition):
    """Supernode-following panel partition with width clamps.

    Attributes (beyond :class:`BlockPartition`'s)
    ----------
    min_width, max_width:
        The clamps. Every panel is at most ``max_width`` wide, and at least
        ``min(min_width, width of its supernode)`` wide.
    """

    policy_name = "supernodal"

    def __init__(
        self,
        sf: SymbolicFactor,
        min_width: int = SUPERNODAL_MIN_WIDTH,
        max_width: int = 96,
    ):
        self.min_width, self.max_width = int(min_width), int(max_width)
        if self.min_width < 1:
            raise ValueError("min_width must be positive")
        if self.max_width < 2 * self.min_width:
            raise ValueError(
                "max_width must be >= 2 * min_width (got min_width="
                f"{self.min_width}, max_width={self.max_width}); the "
                "thin-trailing-panel re-split guarantees both halves stay "
                "within the clamps only under that condition"
            )
        # ``block_size`` doubles as the effective width cap for layers that
        # report a single scalar (traces, bench metadata).
        self.block_size = self.max_width
        self.symbolic = sf
        boundaries: list[int] = [0]
        snode_ids: list[int] = []
        ptr = sf.snode_ptr
        for s in range(sf.nsupernodes):
            a, b = int(ptr[s]), int(ptr[s + 1])
            w = b - a
            pos = a
            for width in self._panel_widths(w):
                pos += width
                boundaries.append(pos)
                snode_ids.append(s)
            assert pos == b
        self._set_panels(boundaries, snode_ids)

    def _panel_widths(self, w: int) -> list[int]:
        """Panel widths for one supernode of width ``w`` (sum == w)."""
        if w <= self.max_width:
            return [w]
        full, r = divmod(w, self.max_width)
        if r == 0:
            return [self.max_width] * full
        if r >= self.min_width:
            return [self.max_width] * full + [r]
        # Thin trailing sliver: merge with the last full panel and re-split
        # the combined max_width + r columns evenly into two panels.
        span = self.max_width + r
        return [self.max_width] * (full - 1) + [span - span // 2, span // 2]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SupernodalPartition(N={self.npanels}, "
            f"min={self.min_width}, max={self.max_width})"
        )


def make_partition(
    sf: SymbolicFactor,
    block_policy: str = "uniform",
    block_size: int = 48,
) -> BlockPartition:
    """Build the partition a ``block_policy`` knob names.

    ``uniform`` cuts panels of ``block_size``; ``supernodal`` follows the
    supernodes, clamped to ``[SUPERNODAL_MIN_WIDTH, max(2 *
    SUPERNODAL_MIN_WIDTH, 2 * block_size)]`` (explicit clamps are a
    :class:`SupernodalPartition` of one's own). Every layer that plans
    independently (driver, workers, service) must call this with identical
    knobs to derive the identical layout.
    """
    if block_policy not in BLOCK_POLICIES:
        raise ValueError(
            f"unknown block_policy {block_policy!r}; "
            f"expected one of {BLOCK_POLICIES}"
        )
    if block_policy == "uniform":
        return BlockPartition(sf, block_size)
    return SupernodalPartition(
        sf, max_width=max(2 * SUPERNODAL_MIN_WIDTH, 2 * int(block_size))
    )
