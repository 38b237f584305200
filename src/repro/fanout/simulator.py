"""Discrete-event simulation of the data-driven block fan-out method.

The readiness and recipient rules are §2.3's, kept in
:mod:`repro.fanout.protocol`; this module adds what only a simulated
machine has: virtual time, one serial ready queue per processor, and the
wire. The queue is a heap on (priority, arrival): with no priorities
every task has priority 0, so tasks run in arrival order — §2.3's
"data-driven" FIFO. Every block operation executes at the
owner of its destination block; a remote consumer learns of a finished
block at the time its owner's copy arrives, a local one at once.

Messages cost ``latency + bytes/bandwidth`` on the wire plus
``send_overhead`` of sender CPU each; tasks cost
``(flops + 1000)/flop_rate``, the work model's own measure, so simulated
efficiency is bounded by the overall-balance statistic exactly as in the
paper.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.fanout.ownership import plan_block_owners
from repro.fanout.protocol import FanoutState, remote_ranks
from repro.fanout.tasks import BMOD, TaskGraph
from repro.machine.event_sim import DiscreteEventSimulator
from repro.machine.params import PARAGON, MachineParams
from repro.mapping.base import CartesianMap


@dataclass
class FanoutResult:
    """Outcome of one simulated parallel factorization."""

    P: int
    t_parallel: float
    t_sequential: float
    busy_times: np.ndarray
    comm_bytes: int
    comm_messages: int
    ntasks: int
    events: int
    factor_ops: int | None = None
    schedule: list | None = None
    meta: dict = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """``t_seq / (P * t_par)`` — the paper's efficiency measure (§3.2)."""
        return self.t_sequential / (self.P * self.t_parallel)

    @property
    def mflops(self) -> float:
        """Parallel Mflops: best-sequential op count over parallel runtime."""
        if self.factor_ops is None:
            raise ValueError("factor_ops not supplied")
        return self.factor_ops / self.t_parallel / 1e6

    @property
    def idle_fraction(self) -> float:
        return 1.0 - float(self.busy_times.sum()) / (self.P * self.t_parallel)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FanoutResult(P={self.P}, t_par={self.t_parallel:.4f}s, "
            f"eff={self.efficiency:.3f})"
        )


def simulate_fanout(
    tg: TaskGraph,
    owners: np.ndarray,
    P: int,
    machine: MachineParams = PARAGON,
    record_schedule: bool = False,
    factor_ops: int | None = None,
    priorities: np.ndarray | None = None,
) -> FanoutResult:
    """Run the block fan-out factorization on the simulated machine.

    ``owners[b]`` is the processor rank of block b (see
    :func:`repro.fanout.ownership.block_owners`). ``priorities`` (one
    value per task, lower runs first, ties in arrival order) orders the
    ready queues; None is FIFO. :mod:`repro.fanout.priorities` has the
    candidate policies.
    """
    owners = np.asarray(owners)
    if owners.shape[0] != tg.nblocks:
        raise ValueError("owners must have one entry per block")
    if owners.size and (owners.min() < 0 or owners.max() >= P):
        raise ValueError("block owner out of range")
    if priorities is None:
        priorities = np.zeros(tg.ntasks)
    prio = np.asarray(priorities, dtype=np.float64)
    if prio.shape != (tg.ntasks,):
        raise ValueError("priorities must have one entry per task")
    prio = prio.tolist()

    sim = DiscreteEventSimulator()
    # Per rank: its ready heap of (priority, arrival, task), whether it is
    # running a task, and its busy time.
    ready: list[list] = [[] for _ in range(P)]
    running = [False] * P
    busy = [0.0] * P
    arrivals = itertools.count()

    task_owner = owners[tg.task_block]
    task_flops = tg.task_flops
    task_kind = tg.task_kind
    task_block = tg.task_block
    state = FanoutState(tg)
    completed = np.zeros(tg.nblocks, dtype=bool)

    stats = {"bytes": 0, "messages": 0}
    schedule: list | None = [] if record_schedule else None
    # Receive-side NIC availability per processor (contention model).
    rx_free = np.zeros(P) if machine.has_rx_contention else None

    def enqueue(tid: int) -> None:
        r = int(task_owner[tid])
        heapq.heappush(ready[r], (prio[tid], next(arrivals), tid))
        if not running[r]:
            start_next(r)

    def start_next(r: int) -> None:
        if not ready[r]:
            running[r] = False
            return
        tid = heapq.heappop(ready[r])[2]
        running[r] = True
        dur = machine.task_time(float(task_flops[tid]))
        sim.schedule_after(dur, lambda: complete(r, int(tid), dur))

    def release(tid: int | None) -> None:
        if tid is not None:
            enqueue(tid)

    def complete(r: int, tid: int, dur: float) -> None:
        kind = task_kind[tid]
        b = int(task_block[tid])
        if schedule is not None:
            schedule.append(tid)

        send_cost = 0.0
        if kind == BMOD:
            release(state.mod_finished(b))
        else:  # BFAC / BDIV: block b is final
            completed[b] = True
            send_cost = _deliver(r, b, *state.consumers(b))

        busy[r] += dur + send_cost
        if send_cost > 0:
            sim.schedule_after(send_cost, lambda: start_next(r))
        else:
            start_next(r)

    def _deliver(rank, src_block, targets, target_blocks):
        """Send block ``src_block`` where needed; report it delivered to
        each target at that target's arrival time. Returns the sender CPU
        cost."""
        if len(targets) == 0:
            return 0.0
        target_owners = owners[target_blocks]
        remote = remote_ranks(target_owners, rank)
        nmsg = remote.shape[0]
        send_cost = nmsg * machine.send_overhead
        words = float(tg.block_words[src_block])
        if nmsg:
            stats["bytes"] += machine.message_bytes(words) * nmsg
            stats["messages"] += nmsg
        wire_arrival = sim.now + send_cost + machine.transfer_time(words)
        if rx_free is None:
            arrival = {int(o): wire_arrival for o in remote}
        else:
            # Serialize deliveries through each receiver's NIC; messages from
            # this send depart together, so each receiver pays one rx slot.
            arrival = {}
            rx = machine.rx_time(words)
            for o in remote:
                o = int(o)
                delivered = max(float(rx_free[o]), wire_arrival) + rx
                rx_free[o] = delivered
                arrival[o] = delivered
        for t, o in zip(targets, target_owners):
            t = int(t)
            if o == rank:
                release(state.delivered(src_block, t))
            else:
                sim.schedule_at(
                    arrival[int(o)],
                    lambda t=t: release(state.delivered(src_block, t)),
                )
        return send_cost

    for tid in state.seeds():
        enqueue(int(tid))

    sim.run()

    if not completed[tg.diag_block].all():
        raise RuntimeError(
            "fan-out simulation deadlocked: "
            f"{int((~completed[tg.diag_block]).sum())} diagonal blocks "
            "incomplete"
        )

    t_seq = float(
        np.sum(task_flops + machine.op_fixed_flops) / machine.flop_rate
    )
    return FanoutResult(
        P=P,
        t_parallel=sim.now,
        t_sequential=t_seq,
        busy_times=np.array(busy),
        comm_bytes=int(stats["bytes"]),
        comm_messages=int(stats["messages"]),
        ntasks=tg.ntasks,
        events=sim.events_processed,
        factor_ops=factor_ops,
        schedule=schedule,
    )


def run_fanout(
    tg: TaskGraph,
    cmap: CartesianMap,
    machine: MachineParams = PARAGON,
    factor_ops: int | None = None,
) -> FanoutResult:
    """Simulate ``cmap`` with §2.3's owners, the rule every planner uses
    (:func:`~repro.fanout.ownership.plan_block_owners`); other owners go
    to :func:`simulate_fanout` directly."""
    result = simulate_fanout(
        tg,
        plan_block_owners(tg, cmap),
        cmap.grid.P,
        machine=machine,
        factor_ops=factor_ops,
    )
    result.meta["mapping"] = cmap.name
    return result
