"""Block layer: panel partition, sparse block structure, and the work model.

The paper forms blocks by splitting the columns into contiguous subsets that
respect supernode boundaries (block size B = 48 in all experiments) and
partitioning the rows identically. ``work[I, J]`` — flops plus 1000 per
block operation, §3.2 — is the quantity every mapping heuristic optimizes.
"""

from repro.blocks.partition import BlockPartition, make_partition
from repro.blocks.structure import BlockStructure
from repro.blocks.workmodel import WorkModel, chol_flops

__all__ = [
    "BlockPartition",
    "BlockStructure",
    "WorkModel",
    "chol_flops",
    "make_partition",
]
