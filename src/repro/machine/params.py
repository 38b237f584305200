"""Machine cost model parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineParams:
    """Cost model of a message-passing multicomputer node.

    ``task_time`` charges every block operation its flops plus a fixed
    ``op_fixed_flops`` overhead — the same 1000-op surcharge the paper's
    work model uses (§3.2), so the simulator's per-processor busy time is
    exactly ``work / flop_rate`` and simulated efficiency is bounded by the
    overall-balance statistic, as in the paper.
    """

    flop_rate: float = 40e6  # flops/s per node (Paragon level-3 BLAS)
    latency: float = 50e-6  # message latency, seconds
    bandwidth: float = 40e6  # effective bytes/s (paper: ~40 MB/s)
    send_overhead: float = 10e-6  # sender CPU occupancy per message
    op_fixed_flops: int = 1000  # fixed cost per block operation, in flops
    word_bytes: int = 8
    header_bytes: int = 64
    #: Receive-side serialization: bytes/s a node's NIC can absorb. The
    #: default (infinity) is the contention-free model; set it to e.g.
    #: ``bandwidth`` to model incast congestion on column broadcasts.
    rx_bandwidth: float = float("inf")

    def task_time(self, flops: float) -> float:
        """Execution time of one block operation."""
        return (flops + self.op_fixed_flops) / self.flop_rate

    def transfer_time(self, words: float) -> float:
        """Wire time of one message carrying ``words`` matrix entries."""
        return self.latency + (words * self.word_bytes + self.header_bytes) / self.bandwidth

    def message_bytes(self, words: float) -> int:
        return int(words) * self.word_bytes + self.header_bytes

    @property
    def has_rx_contention(self) -> bool:
        return self.rx_bandwidth != float("inf")

    def rx_time(self, words: float) -> float:
        """NIC occupancy at the receiver for one message."""
        if not self.has_rx_contention:
            return 0.0
        return (words * self.word_bytes + self.header_bytes) / self.rx_bandwidth


#: The Paragon system of the paper's experiments (§3.1).
PARAGON = MachineParams()

#: A zero-communication machine: useful for isolating load imbalance from
#: communication effects (efficiency == schedule-limited balance).
ZERO_COMM = MachineParams(latency=0.0, bandwidth=float("inf"), send_overhead=0.0)
