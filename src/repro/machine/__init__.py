"""Simulated distributed-memory multicomputer.

The paper's testbed is an Intel Paragon (OSF/1 R1.2): 50 microsecond message
latency, ~40 MB/s effective bandwidth at the message sizes the code uses, and
hand-optimized Level-3 BLAS running 20-40 Mflops per node. No Paragon being
available, this package provides a deterministic discrete-event model with
exactly those parameters; the fan-out simulator
(:func:`repro.fanout.simulate_fanout`, which keeps each processor's ready
queue and busy time) runs the real algorithm's task and message structure
against it.
"""

from repro.machine.params import MachineParams, PARAGON
from repro.machine.event_sim import DiscreteEventSimulator

__all__ = [
    "MachineParams",
    "PARAGON",
    "DiscreteEventSimulator",
]
