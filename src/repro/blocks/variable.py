"""Variable block size partitions (§5 of the paper).

The paper tried two refinements of the fixed block size B:

* **stage-varying B** — large blocks early in the factorization (plenty of
  concurrency to hide imbalance), small blocks late. Finding: *no effect on
  load imbalance, and it reduces the available parallelism* — the intuition
  is wrong.
* **position-based B** — block size chosen by the processor row/column the
  block lands on. Finding: small improvement, much less than remapping.

Both are expressed here as panel-width policies: a callable mapping a
supernode's depth in the supernode tree (and its width) to the panel width
used when splitting that supernode. The result is a
:class:`~repro.blocks.partition.BlockPartition` whose target width is the
policy's, so every downstream stage (structure, work model, task graph,
simulator) runs unchanged — that is exactly the ablation the experiment
module runs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.blocks.partition import BlockPartition
from repro.symbolic.structure import SymbolicFactor

#: A policy maps (snode_depth, snode_width) -> panel width for that supernode;
#: the depth counts supernode-tree levels, roots at 0.
SizePolicy = Callable[[int, int], int]


def _stage_varying(early: int, late: int, depth_cutoff: int,
                   depth: int, width: int) -> int:
    return early if depth > depth_cutoff else late


def stage_varying_policy(
    early: int = 96, late: int = 24, depth_cutoff: int = 4
) -> SizePolicy:
    """Large blocks early in the factorization, small blocks late.

    Early means deep in the supernode tree (leaves eliminate first):
    supernodes more than ``depth_cutoff`` levels below their root get
    ``early``; the root and the levels just below it (eliminated last) get
    ``late``. The policy pickles, so a partition built on it ships to
    worker processes.
    """
    return partial(_stage_varying, early, late, depth_cutoff)


class VariableBlockPartition(BlockPartition):
    """Panel partition whose target width varies per supernode via a policy.

    Only :meth:`target_width` differs from :class:`BlockPartition`: the
    splitting loop, and the attribute contract every downstream stage
    reads, are the base class's.
    """

    def __init__(self, sf: SymbolicFactor, policy: SizePolicy):
        self.policy = policy
        self._split(sf)

    def target_width(self, depth: int, width: int) -> int:
        return self.policy(depth, width)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VariableBlockPartition(N={self.npanels})"
