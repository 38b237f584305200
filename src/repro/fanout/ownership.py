"""Block ownership: 2-D mapping for the root portion, 1-D for domains.

The owner of block (I, J) performs every block operation whose destination
is (I, J) (§2.3). Domain panels are column-owned by their domain processor;
root-portion blocks follow the :class:`~repro.mapping.base.CartesianMap`.
"""

from __future__ import annotations

import numpy as np

from repro.fanout.domains import DomainAssignment, assign_domains
from repro.fanout.tasks import TaskGraph
from repro.mapping.base import CartesianMap


def block_owners(
    tg: TaskGraph,
    cmap: CartesianMap,
    domains: DomainAssignment | None = None,
) -> np.ndarray:
    """Linear processor rank of every block in the task graph.

    A block in a domain column belongs to the domain's processor (1-D
    block-column mapping of the domain portion); all other blocks follow the
    2-D block mapping.
    """
    if cmap.npanels != tg.npanels:
        raise ValueError("mapping and task graph disagree on panel count")
    owners = cmap.owner_array(tg.block_I, tg.block_J)
    if domains is not None:
        dom = domains.panel_owner[tg.block_J]
        owners = np.where(dom >= 0, dom, owners)
    return owners.astype(np.int64)


def plan_block_owners(tg: TaskGraph, cmap: CartesianMap) -> np.ndarray:
    """§2.3's owners, the rule every planner uses: each elimination-tree
    domain whole to one processor, the root portion 2-D mapped by ``cmap``."""
    return block_owners(tg, cmap, assign_domains(tg.workmodel, cmap.grid.P))
