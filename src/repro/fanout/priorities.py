"""Task priority policies for the simulator's ready queues.

§5 leaves open whether scheduling "more sensitive to some measures of
priority of tasks than the purely data-driven approach" would close the gap
between achieved efficiency and the critical-path bound.
``simulate_fanout(..., priorities=)`` takes a per-task priority array
(lower value = run first, ties in arrival order; None is the data-driven
FIFO); this module provides the candidate policies:

``column``
    earliest destination block column first (eliminate early columns
    eagerly; ``repro simulate --priority``);
``depth``
    deepest destination first (drain the elimination-tree leaves, keeping
    domains busy);
``bottom_level``
    classic HLF/critical-path scheduling: tasks with the longest remaining
    dependence chain first. Computed by a reverse sweep over the task
    graph's panel runs, the mirror of :func:`repro.analysis.critical_path`.
"""

from __future__ import annotations

import numpy as np

from repro.fanout.tasks import TaskGraph
from repro.machine.params import PARAGON, MachineParams

POLICIES = ("fifo", "column", "depth", "bottom_level")


def column_priorities(tg: TaskGraph) -> np.ndarray:
    """Earliest destination column first (ties: earliest row)."""
    dest = tg.task_block
    return (tg.block_J[dest] * tg.npanels + tg.block_I[dest]).astype(
        np.float64
    )


def depth_priorities(tg: TaskGraph, depth: np.ndarray) -> np.ndarray:
    """Deepest destination panel first. ``depth`` is per-panel."""
    dest_panel = tg.block_J[tg.task_block]
    return -depth[dest_panel].astype(np.float64)


def bottom_level_priorities(
    tg: TaskGraph, machine: MachineParams = PARAGON
) -> np.ndarray:
    """Negative bottom level (longest remaining chain first).

    The bottom level of a task is its own duration plus the longest bottom
    level among its successors. Successor structure of the fan-out DAG:

    * ``BMOD`` into block b  ->  the BFAC/BDIV task of block b;
    * ``BDIV`` of block b    ->  every BMOD consuming b;
    * ``BFAC`` of panel K    ->  the BDIV tasks of panel K's blocks.

    A BMOD's sources are BDIVs of its own panel run (``TaskGraph.task_ptr``)
    and its destination's factor task lies in a later run, so one reverse
    sweep over the runs — BMODs, then BDIVs, then the BFAC — computes exact
    levels.
    """
    dur = (tg.task_flops + machine.op_fixed_flops) / machine.flop_rate
    level = np.zeros(tg.ntasks)
    # Per block: its factor task, and the longest level of a BMOD it feeds.
    factor_task = np.where(tg.bfac_task >= 0, tg.bfac_task, tg.bdiv_task)
    fed = np.zeros(tg.nblocks)
    block, src1 = tg.task_block, tg.task_src1
    src2 = np.where(tg.task_src2 >= 0, tg.task_src2, src1)

    for fac, mod, end in reversed(tg.panel_runs()):
        mods = slice(mod, end)
        level[mods] = dur[mods] + level[factor_task[block[mods]]]
        np.maximum.at(fed, src1[mods], level[mods])
        np.maximum.at(fed, src2[mods], level[mods])
        divs = slice(fac + 1, mod)
        level[divs] = dur[divs] + fed[block[divs]]
        level[fac] = dur[fac] + level[divs].max(initial=0.0)
    return -level


def task_priorities(
    tg: TaskGraph,
    policy: str,
    depth: np.ndarray | None = None,
    machine: MachineParams = PARAGON,
) -> np.ndarray | None:
    """Priority array for ``policy`` (None for pure FIFO)."""
    if policy == "fifo":
        return None
    if policy == "column":
        return column_priorities(tg)
    if policy == "depth":
        if depth is None:
            raise ValueError("depth policy requires per-panel depths")
        return depth_priorities(tg, depth)
    if policy == "bottom_level":
        return bottom_level_priorities(tg, machine)
    raise KeyError(f"unknown policy {policy!r}; expected one of {POLICIES}")
