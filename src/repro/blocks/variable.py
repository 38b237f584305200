"""Variable block size partitions (§5 of the paper).

The paper tried two refinements of the fixed block size B:

* **stage-varying B** — large blocks early in the factorization (plenty of
  concurrency to hide imbalance), small blocks late. Finding: *no effect on
  load imbalance, and it reduces the available parallelism* — the intuition
  is wrong.
* **position-based B** — block size chosen by the processor row/column the
  block lands on. Finding: small improvement, much less than remapping.

Both are expressed here as panel-width policies: a callable mapping a
supernode's elimination-tree depth (and width) to the panel width used when
splitting that supernode. The result is an ordinary
:class:`~repro.blocks.partition.BlockPartition`-compatible object, so every
downstream stage (structure, work model, task graph, simulator) runs
unchanged — that is exactly the ablation the experiment module runs.
"""

from __future__ import annotations

from typing import Callable

from repro.blocks.partition import BlockPartition
from repro.symbolic.structure import SymbolicFactor

#: A policy maps (snode_depth, snode_width) -> panel width for that supernode.
SizePolicy = Callable[[int, int], int]


def stage_varying_policy(
    early: int = 96, late: int = 24, depth_cutoff: int = 4
) -> SizePolicy:
    """Large blocks near the elimination-tree root... wait — *early* in the
    factorization means *deep* in the tree (leaves eliminate first).

    Supernodes deeper than ``depth_cutoff`` (eliminated early) get ``early``;
    shallow supernodes near the root (eliminated last) get ``late``.
    """

    def policy(depth: int, width: int) -> int:
        return early if depth > depth_cutoff else late

    return policy


def uniform_policy(B: int = 48) -> SizePolicy:
    """The paper's baseline fixed block size."""

    def policy(depth: int, width: int) -> int:
        return B

    return policy


class VariableBlockPartition(BlockPartition):
    """Panel partition whose width varies per supernode via a policy.

    Subclasses :class:`BlockPartition` so the entire block/fan-out stack
    accepts it unchanged; only the splitting loop differs.
    """

    policy_name = "variable"

    def __init__(self, sf: SymbolicFactor, policy: SizePolicy):
        # Deliberately do NOT call super().__init__ — we replace the
        # splitting loop but keep the same attribute contract.
        self.block_size = -1  # sentinel: variable
        self.policy = policy
        self.symbolic = sf
        snode_depth = sf.depth[sf.snode_ptr[:-1]]
        boundaries: list[int] = [0]
        snode_ids: list[int] = []
        ptr = sf.snode_ptr
        for s in range(sf.nsupernodes):
            a, b = int(ptr[s]), int(ptr[s + 1])
            w = b - a
            B = max(1, int(self.policy(int(snode_depth[s]), w)))
            npanels = max(1, -(-w // B))
            base, extra = divmod(w, npanels)
            pos = a
            for k in range(npanels):
                pos += base + (1 if k < extra else 0)
                boundaries.append(pos)
                snode_ids.append(s)
            assert pos == b
        self._set_panels(boundaries, snode_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VariableBlockPartition(N={self.npanels})"
