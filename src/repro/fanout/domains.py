"""Domain decomposition: disjoint elimination-tree subtrees per processor.

The block fan-out method does not 2-D-map the whole matrix (§2.3): columns in
disjoint subtrees of the elimination tree — the *domain* portion — are each
assigned wholly to one processor (1-D block-column mapping); only the *root*
portion is 2-D mapped. Domains drastically reduce communication because all
updates inside a subtree are local.

Domain selection: descend from the supernode-tree roots splitting any subtree
whose work exceeds ``total_work / (split_factor * P)``; greedily number-
partition the resulting subtrees over the P processors by decreasing work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocks.workmodel import WorkModel
from repro.symbolic.supernodes import supernode_parents
from repro.util.arrays import INDEX_DTYPE


@dataclass
class DomainAssignment:
    """``panel_owner[K]`` = processor rank owning domain panel K, or -1 when
    panel K belongs to the 2-D-mapped root portion."""

    panel_owner: np.ndarray


def no_domains(npanels: int) -> DomainAssignment:
    """Everything in the root portion (pure 2-D mapping)."""
    return DomainAssignment(np.full(npanels, -1, dtype=INDEX_DTYPE))


def assign_domains(
    wm: WorkModel,
    P: int,
    split_factor: float = 2.0,
) -> DomainAssignment:
    """Choose domains and pack them onto ``P`` processors."""
    if P < 1:
        raise ValueError("P must be positive")
    part = wm.structure.partition
    sf = part.symbolic
    nsup = sf.nsupernodes
    N = part.npanels
    if nsup == 0:
        return no_domains(N)

    sparent = supernode_parents(sf.snode_ptr, sf.parent)
    snode_work = np.zeros(nsup, dtype=np.float64)
    np.add.at(snode_work, part.panel_snode, wm.workJ)
    subtree = snode_work.copy()
    for s in range(nsup):
        p = sparent[s]
        if p != -1:
            subtree[int(p)] += subtree[s]

    children: list[list[int]] = [[] for _ in range(nsup)]
    roots: list[int] = []
    for s in range(nsup):
        p = int(sparent[s])
        (roots if p == -1 else children[p]).append(s)

    threshold = wm.total_work / (split_factor * P)
    domain_roots: list[int] = []
    stack = list(roots)
    while stack:
        s = stack.pop()
        if subtree[s] <= threshold:
            domain_roots.append(s)
        elif children[s]:
            stack.extend(children[s])
        # else: an oversized leaf supernode (e.g. the single supernode of a
        # dense matrix) stays in the 2-D-mapped root portion.

    # Greedy number partitioning of domain subtrees over processors.
    domain_roots.sort(key=lambda s: -subtree[s])
    loads = np.zeros(P, dtype=np.float64)
    snode_owner = np.full(nsup, -1, dtype=INDEX_DTYPE)
    for s in domain_roots:
        p = int(np.argmin(loads))
        loads[p] += subtree[s]
        # Assign the whole subtree of s to p (descendants of s only).
        sub_stack = [s]
        while sub_stack:
            t = sub_stack.pop()
            snode_owner[t] = p
            sub_stack.extend(children[t])

    panel_owner = snode_owner[part.panel_snode]
    return DomainAssignment(panel_owner.astype(INDEX_DTYPE))
