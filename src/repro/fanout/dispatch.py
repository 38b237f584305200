"""The per-rank dispatch plan: what one rank's event loop looks up per task.

:mod:`repro.fanout.protocol` states §2.3's rules over numpy arrays, which
suits an executor that asks once per event. A message-passing worker asks
a few thousand times per job and always gets the same answers, because
they depend on ``(task graph, owners, rank)`` alone. :class:`DispatchPlan`
asks every question once — through ``FanoutState.consumers`` and
``remote_ranks``, never by restating a rule — and keeps the answers as
plain Python ints and lists, the types an interpreter loop reads fastest.

It is derived state, like :class:`repro.blocks.plan.NumericPlan`: built
where it is used, kept by whoever holds the pattern, never shipped. The
dependency *counters* stay on a per-job :class:`FanoutState`.
"""

from __future__ import annotations

import numpy as np

from repro.fanout.protocol import FanoutState, remote_ranks
from repro.fanout.tasks import BMOD, TaskGraph


class DispatchPlan:
    """Look-up tables of rank ``rank`` under the block map ``owners``.

    Attributes
    ----------
    task:
        Per task ``(kind, block, I, J, K, flops, work)``: kind code,
        destination block, its panel coordinates, the source panel (``K ==
        J`` for BFAC/BDIV) and the flop / work-model counts. Every task is
        listed, owned or not, so a stolen task reads the same table.
    coords:
        Per block ``(I, J)``.
    mine, n_owned:
        Per task: this rank owns its destination; how many it owns.
    owned:
        The blocks this rank owns, ascending.
    seeds:
        Owned tasks ready before anything ran, ascending block id.
    local:
        Per block: the consumers (``FanoutState.consumers`` ids) whose
        owner is this rank, in protocol order.
    recipients:
        Per owned block: the distinct remote ranks its final value travels
        to, ascending; ``None`` for a block this rank does not own.
    expected:
        The blocks owned elsewhere that a consumer here waits for.
    bmod_order:
        Per destination block with owned BMODs: their task ids, ascending
        — the canonical accumulation order. Applying a block's updates in
        this order whatever order their sources arrive in is what makes
        the floating-point sums, and so the factor, bitwise reproducible
        run to run, across transports and under stealing.
    """

    def __init__(self, tg: TaskGraph, owners: np.ndarray, rank: int):
        owners = np.asarray(owners)
        state = FanoutState(tg)
        kind, block, flops = tg.task_kind, tg.task_block, tg.task_flops
        I, J = tg.block_I[block], tg.block_J[block]
        # BFAC/BDIV carry ``src1 == -1``; their source panel is their own.
        K = np.where(kind == BMOD, tg.block_J[tg.task_src1], J)
        work = flops + int(tg.workmodel.op_fixed_cost)
        self.task = list(zip(*(
            a.tolist() for a in (kind, block, I, J, K, flops, work)
        )))
        self.coords = list(zip(tg.block_I.tolist(), tg.block_J.tolist()))
        self.mine = mine = owners[block] == rank
        self.n_owned = int(mine.sum())
        self.owned = np.flatnonzero(owners == rank).tolist()
        seeds = state.seeds()
        self.seeds = seeds[mine[seeds]].tolist()
        # Ask the protocol about every block, then answer for this rank
        # with array passes over the answers laid end to end.
        asked = [state.consumers(b) for b in range(tg.nblocks)]
        ids = np.concatenate([ids for ids, _ in asked])
        target_owners = owners[np.concatenate([blocks for _, blocks in asked])]
        of_block = np.repeat(
            np.arange(tg.nblocks), [ids.shape[0] for ids, _ in asked]
        )
        here = target_owners == rank
        self.local = _split(ids[here], of_block[here], tg.nblocks)
        # One ``remote_ranks`` call for all owned blocks: a target elsewhere
        # is tagged with the block it is a target of (tags start above any
        # rank), one here stays ``rank`` and so drops out as it always did.
        P = int(owners.max()) + 1
        tagged = np.where(here, rank, (of_block + 1) * P + target_owners)
        pairs = remote_ranks(tagged[owners[of_block] == rank], rank)
        recipients = _split(pairs % P, pairs // P - 1, tg.nblocks)
        self.recipients = [
            dsts if owner == rank else None
            for dsts, owner in zip(recipients, owners.tolist())
        ]
        self.expected = [
            b for b, dsts in enumerate(self.recipients)
            if dsts is None and self.local[b]
        ]
        # A stable sort by destination keeps task ids ascending per block.
        mods = np.flatnonzero((kind == BMOD) & mine)
        mods = mods[np.argsort(block[mods], kind="stable")]
        order = _split(mods, block[mods], tg.nblocks)
        self.bmod_order = {b: tids for b, tids in enumerate(order) if tids}


def _split(values: np.ndarray, group: np.ndarray, ngroups: int) -> list[list]:
    """``values`` (already grouped, ``group`` ascending) as one list per
    group."""
    bounds = np.concatenate(
        [[0], np.cumsum(np.bincount(group, minlength=ngroups))]
    ).tolist()
    values = values.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class PlanHolder:
    """Base of whatever keeps a pattern's ``tg`` and ``owners`` resident
    (the runtime's ``PatternContext``): each rank's compiled plans are
    built by its first job there, live as long as the holder does and are
    left out of its pickled state."""

    #: One ``{rank: plan}`` table per kind of plan.
    _TABLES = ("_dispatch_plans", "_solve_plans")

    def _compiled(self, table: str, rank: int, build):
        plans = self.__dict__.setdefault(table, {})
        if rank not in plans:
            plans[rank] = build()
        return plans[rank]

    def dispatch_plan(self, rank: int) -> DispatchPlan:
        return self._compiled(
            "_dispatch_plans", rank,
            lambda: DispatchPlan(self.tg, self.owners, rank),
        )

    def solve_plan(self, rank: int, build):
        """The rank's solve-phase tables — whatever ``build()`` compiles
        (the runtime's ``SolvePlan`` and its rank's destinations), kept so
        that the workers of later factor jobs do not compile them again."""
        return self._compiled("_solve_plans", rank, build)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for table in self._TABLES:
            state.pop(table, None)
        return state
