"""Per-processor memory accounting under a block ownership.

The Paragon nodes of the paper's experiments have 32 MB each (§3.1), so the
factor must not only be load-balanced but *storage*-balanced. This module
accounts, per processor:

* resident factor storage (the dense blocks it owns), and
* peak receive buffering (the largest set of remote source blocks a
  processor may need simultaneously is bounded above by every remote block
  it ever receives; we report that bound).

One of this reproduction's own observations (an ablation, not in the paper):
the remapping heuristics balance *work*, which correlates with but does not
equal storage — the memory ratio is reported so users can check both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.comm_volume import block_destinations
from repro.fanout.tasks import TaskGraph
from repro.machine.params import PARAGON, MachineParams


@dataclass(frozen=True)
class MemoryReport:
    """Bytes per processor: owned factor storage and received-copy bound."""

    owned_bytes: np.ndarray
    received_bound_bytes: np.ndarray

    @property
    def max_owned(self) -> int:
        return int(self.owned_bytes.max())

    @property
    def storage_balance(self) -> float:
        """total / (P * max): 1.0 = perfectly storage-balanced."""
        total = float(self.owned_bytes.sum())
        if total == 0:
            return 1.0
        return total / (self.owned_bytes.shape[0] * self.owned_bytes.max())

    @property
    def worst_case_bytes(self) -> int:
        """Upper bound on any node's footprint: owned + everything received."""
        return int((self.owned_bytes + self.received_bound_bytes).max())

    def fits(self, node_bytes: int = 32 * 2**20) -> bool:
        """Would the factorization fit in ``node_bytes`` per node (default:
        the Paragon's 32 MB)?"""
        return self.worst_case_bytes <= node_bytes


def memory_usage(
    tg: TaskGraph,
    owners: np.ndarray,
    P: int,
    machine: MachineParams = PARAGON,
) -> MemoryReport:
    """Account factor storage and received-copy bounds per processor."""
    owners = np.asarray(owners)
    word = machine.word_bytes
    owned = np.bincount(
        owners, weights=tg.block_words * word, minlength=P
    ).astype(np.int64)

    # Every remote block a processor ever receives: the diagonal blocks
    # its BDIVs need and the subdiagonal blocks its BMODs need.
    received = np.zeros(P, dtype=np.int64)
    for b, dests in block_destinations(tg, owners):
        received[dests] += int(tg.block_words[b]) * word

    return MemoryReport(owned_bytes=owned, received_bound_bytes=received)
