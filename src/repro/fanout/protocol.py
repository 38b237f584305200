"""§2.3's data-driven protocol, written once: when a task is ready and who
needs a finished block.

* a BMOD is ready when its source blocks have arrived (one for a
  diagonal-destination update, else two);
* a BDIV is ready when its destination has absorbed every BMOD *and*
  ``L_KK`` has arrived; a BFAC when its destination has absorbed every BMOD;
* a finished ``L_KK`` goes once to each distinct remote owner of panel K's
  subdiagonal blocks, a finished ``L_IK`` once to each distinct remote owner
  of a BMOD it feeds.

:class:`FanoutState` knows no rank, no clock and no queue. An executor
reports what happened — ``delivered`` once per (finished block, consumer
whose owner now holds it), ``mod_finished`` once per executed BMOD — and
schedules the task it gets back; the order of those reports is the order
its ready queues see. The simulator drives one; ``dispatch.DispatchPlan``
compiles the mp worker's tables from one; the thread executor drives none
(``docs/ARCHITECTURE.md``, "The fan-out protocol"). The static predictors
in :mod:`repro.analysis` never import this module: they are the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.fanout.tasks import TaskGraph


def remote_ranks(target_owners: np.ndarray, me: int) -> np.ndarray:
    """The distinct ranks among ``target_owners`` other than ``me``: a
    finished block travels once to each."""
    return np.unique(target_owners[target_owners != me])


class FanoutState:
    """Dependency counters of one factorization over ``tg``."""

    def __init__(self, tg: TaskGraph):
        self.tg = tg
        #: Per block: it is a diagonal block ``L_KK``.
        self.diagonal = tg.block_I == tg.block_J
        #: Per block: BMODs it has yet to absorb.
        self.mods_remaining = tg.nmod.copy()
        #: Per task: source blocks a BMOD has yet to see (0 for BFAC/BDIV).
        self.missing = tg.task_missing_init.copy()
        #: Per subdiagonal block: ``L_KK`` has reached its owner.
        self.diag_ready = np.zeros(tg.nblocks, dtype=bool)

    def seeds(self) -> np.ndarray:
        """Tasks ready before anything ran: the BFAC of every diagonal
        block with no incoming BMOD, ascending block id."""
        tg = self.tg
        return tg.bfac_task[self.diagonal & (tg.nmod == 0)]

    def consumers(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Who needs finished block ``b``, as ``(ids, blocks)``: panel K's
        subdiagonal blocks for ``L_KK``, the dependent BMOD task ids for
        ``L_IK``; ``blocks[i]`` is the block whose owner runs ``ids[i]``
        and so must hold ``b``."""
        tg = self.tg
        if self.diagonal[b]:
            k = tg.block_J[b]
            sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
            return sub, sub
        deps = tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]
        return deps, tg.task_block[deps]

    def delivered(self, b: int, c: int) -> int | None:
        """Finished block ``b`` reached the owner of its consumer ``c`` (an
        id from :meth:`consumers`); the task that became ready, or None."""
        if self.diagonal[b]:
            self.diag_ready[c] = True
            if self.mods_remaining[c]:
                return None
            return int(self.tg.bdiv_task[c])
        self.missing[c] -= 1
        return None if self.missing[c] else c

    def mod_finished(self, b: int) -> int | None:
        """A BMOD into block ``b`` finished; ``b``'s BFAC / BDIV if that
        made it ready, else None."""
        self.mods_remaining[b] -= 1
        if self.mods_remaining[b]:
            return None
        if self.diagonal[b]:
            return int(self.tg.bfac_task[b])
        return int(self.tg.bdiv_task[b]) if self.diag_ready[b] else None
