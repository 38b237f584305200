"""The parallel block fan-out method (§2.3) on the simulated machine.

``TaskGraph`` turns a block structure into the BFAC/BDIV/BMOD task DAG with
fan-out dependency counters; ``protocol.FanoutState`` is the one statement
of when a task is ready and who needs a finished block (``dispatch.
DispatchPlan`` compiles its answers for one rank of one owner map into
counters per share — the blocks of one column a rank owns — for the mp
worker's panel ops, past its local pass); ``simulate_fanout``
runs the data-driven algorithm — block completions trigger messages,
message arrivals enable tasks — on the discrete-event machine and reports
runtime, efficiency, Mflops, and communication statistics. ``plan_block_owners``
is the one owner rule: ``assign_domains``' subtrees whole, the root 2-D mapped.
"""

from repro.fanout.tasks import TaskGraph
from repro.fanout.domains import DomainAssignment, assign_domains
from repro.fanout.ownership import block_owners, plan_block_owners
from repro.fanout.priorities import task_priorities
from repro.fanout.simulator import FanoutResult, simulate_fanout, run_fanout

__all__ = [
    "TaskGraph",
    "DomainAssignment",
    "assign_domains",
    "block_owners",
    "plan_block_owners",
    "task_priorities",
    "FanoutResult",
    "simulate_fanout",
    "run_fanout",
]
