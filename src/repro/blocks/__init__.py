"""Block layer: panel partition, sparse block structure, and the work model.

The paper forms blocks by splitting the columns into contiguous subsets that
respect supernode boundaries (block size B = 48 in all experiments) and
partitioning the rows identically. ``work[I, J]`` — flops plus 1000 per
block operation, §3.2 — is the quantity every mapping heuristic optimizes.
"""

from repro.blocks.partition import BlockPartition
from repro.blocks.structure import BlockStructure
from repro.blocks.supernodal import (
    BLOCK_POLICIES,
    SupernodalPartition,
    make_partition,
)
from repro.blocks.workmodel import WorkModel, chol_flops

__all__ = [
    "BLOCK_POLICIES",
    "BlockPartition",
    "BlockStructure",
    "SupernodalPartition",
    "WorkModel",
    "chol_flops",
    "make_partition",
]
