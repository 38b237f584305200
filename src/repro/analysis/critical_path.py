"""Critical-path analysis of the block task DAG.

The critical path is the longest dependency chain through the BFAC/BDIV/BMOD
DAG, measured in task time with communication ignored and unlimited
processors — a coarse lower bound on parallel runtime and hence an upper
bound on useful parallelism (§5 uses it to show the post-remapping gap is a
scheduling problem, not a concurrency shortage).

BMODs targeting the same block are treated as concurrent (each needs only
its sources), which makes the bound optimistic, i.e. still a valid lower
bound on runtime.

The path is one forward sweep over the task graph's panel runs
(``TaskGraph.task_ptr``): every task of panel K reads only blocks finished
in earlier runs or earlier in its own, so block completion times are final
when the sweep reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fanout.tasks import TaskGraph
from repro.machine.params import PARAGON, MachineParams


@dataclass(frozen=True)
class CriticalPathReport:
    length_seconds: float
    t_sequential: float

    @property
    def max_speedup(self) -> float:
        """Upper bound on speedup: ``t_seq / critical_path``."""
        return self.t_sequential / self.length_seconds

    def max_efficiency(self, P: int) -> float:
        """Upper bound on efficiency at P processors from the path alone."""
        return min(1.0, self.max_speedup / P)


def critical_path(
    tg: TaskGraph, machine: MachineParams = PARAGON
) -> CriticalPathReport:
    """Longest chain through the task DAG, in seconds of task time."""
    dur = (tg.task_flops + machine.op_fixed_flops) / machine.flop_rate
    block, src1 = tg.task_block, tg.task_src1
    src2 = np.where(tg.task_src2 >= 0, tg.task_src2, src1)
    avail = np.zeros(tg.nblocks)  # completion time of each block
    mod_ready = np.zeros(tg.nblocks)  # latest BMOD finish per destination

    for fac, mod, end in tg.panel_runs():
        diag_b = block[fac]
        avail[diag_b] = mod_ready[diag_b] + dur[fac]
        divs, mods = slice(fac + 1, mod), slice(mod, end)
        bid = block[divs]
        avail[bid] = np.maximum(mod_ready[bid], avail[diag_b]) + dur[divs]
        finish = np.maximum(avail[src1[mods]], avail[src2[mods]]) + dur[mods]
        np.maximum.at(mod_ready, block[mods], finish)

    t_seq = float(np.sum(tg.task_flops + machine.op_fixed_flops) / machine.flop_rate)
    return CriticalPathReport(
        length_seconds=float(avail.max()) if avail.size else 0.0,
        t_sequential=t_seq,
    )
