"""The per-rank dispatch plan: what one rank's event loop looks up per task.

:mod:`repro.fanout.protocol` states §2.3's rules over numpy arrays, which
suits an executor that asks once per event. A message-passing worker asks
a few thousand times per job and always gets the same answers, because
they depend on ``(task graph, owners, rank)`` alone. :class:`DispatchPlan`
asks every question once — through ``FanoutState.consumers`` and
``remote_ranks``, never by restating a rule — and keeps the answers as
plain Python ints and lists, the types an interpreter loop reads fastest.

The task graph is the paper's, one task per block; what an executor
*dispatches* is coarser. BFAC and BDIV run as they are, but the BMODs of a
rank run as :class:`PanelUpdates`: all those from source panel K into
destination panel J whose destination blocks it owns make one panel
update, one dgemm and one scatter
(:meth:`repro.numeric.blockfact.BlockCholesky.pmod`). An
:class:`UpdateQueue` releases a panel update once every member BMOD is
ready by the protocol and every earlier update of the rank into the same
panel has run, so a block's updates are applied in ascending K on every
executor.

It is derived state, like :class:`repro.blocks.plan.NumericPlan`: built
where it is used, kept by whoever holds the pattern, never shipped. The
dependency *counters* stay on a per-job :class:`FanoutState` and
:class:`UpdateQueue`.
"""

from __future__ import annotations

import numpy as np

from repro.fanout.protocol import FanoutState, remote_ranks
from repro.fanout.tasks import BDIV, BMOD, TaskGraph


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
    updates:
        The rank's BMODs as :class:`PanelUpdates`.
    grantable:
        Ready-queue item -> the task a thief may be granted for it: an
        owned BDIV for itself, ``ntasks + op`` for the one member of a
        panel update with a single destination. No other item is granted.
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
        self._tg = tg
        self.updates = PanelUpdates(tg, mine)
        bdivs = np.flatnonzero((kind == BDIV) & mine).tolist()
        self.grantable = dict(zip(bdivs, bdivs))
        self.grantable.update(
            (tg.ntasks + o, tids[0])
            for o, (*_, tids, _, _, _) in enumerate(self.updates.ops)
            if len(tids) == 1
        )

    def sources(self, tid: int) -> list[int]:
        """The final blocks a granted task reads: a BMOD's one or two
        sources, a BDIV's diagonal block (BDIV carries ``src1 == -1``)."""
        tg = self._tg
        if int(tg.task_kind[tid]) == BDIV:
            return [int(tg.diag_block[tg.block_J[tg.task_block[tid]]])]
        srcs = (int(tg.task_src1[tid]), int(tg.task_src2[tid]))
        return [s for i, s in enumerate(srcs) if s >= 0 and s not in srcs[:i]]


def _split(values: np.ndarray, group: np.ndarray, ngroups: int) -> list[list]:
    """``values`` (already grouped, ``group`` ascending) as one list per
    group."""
    bounds = np.concatenate(
        [[0], np.cumsum(np.bincount(group, minlength=ngroups))]
    ).tolist()
    values = values.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class PanelUpdates:
    """The BMODs whose destinations a rank owns (``mine``, per task) as
    panel updates: one per (source panel K, destination panel J).

    Attributes
    ----------
    ops:
        Per update ``(K, J, rows, tids, blocks, flops, work)``: the slab
        rows of panel K it stacks — a slice when they are contiguous, else
        an index array — its member BMODs in ascending task id (so
        ascending rows) with their destination blocks, and the sums of
        their flop and work-model counts. Sorted by (J, K): the updates
        into one panel are a run, ascending in K.
    of:
        Member task id -> its update's index in ``ops``.
    need, next, heads:
        Where an :class:`UpdateQueue` starts: per update its member count
        and the next update into the same panel (-1 for none), per
        destination panel its first update.
    """

    def __init__(self, tg: TaskGraph, mine: np.ndarray):
        self._tg = tg
        self._spans = spans = tg.workmodel.structure.numeric_plan().spans
        self._op_cost = op_cost = int(tg.workmodel.op_fixed_cost)
        mods = np.flatnonzero((tg.task_kind == BMOD) & mine)
        blocks = tg.task_block[mods]
        I, J = tg.block_I[blocks], tg.block_J[blocks]
        K = tg.block_J[tg.task_src1[mods]]
        order = np.lexsort((mods, K, J))
        cut = np.flatnonzero(np.diff(J[order]) | np.diff(K[order])) + 1
        bounds = [0, *cut.tolist(), mods.shape[0]] if mods.size else []
        tids, blocks, I, J, K, flops = (
            a[order].tolist()
            for a in (mods, blocks, I, J, K, tg.task_flops[mods])
        )
        self.ops: list[tuple] = []
        self.of: dict[int, int] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            pieces = [spans[K[lo]][i] for i in I[lo:hi]]
            if all(a[1] == b[0] for a, b in zip(pieces, pieces[1:])):
                rows = slice(pieces[0][0], pieces[-1][1])
            else:
                rows = np.concatenate([np.arange(*p) for p in pieces])
            f = sum(flops[lo:hi])
            self.of.update(dict.fromkeys(tids[lo:hi], len(self.ops)))
            self.ops.append((
                K[lo], J[lo], rows, tuple(tids[lo:hi]), tuple(blocks[lo:hi]),
                f, f + op_cost * (hi - lo),
            ))
        self.need = [len(op[3]) for op in self.ops]
        self.next, self.heads = _chains(self.ops, [False] * len(self.ops))

    def single(self, tid: int) -> tuple:
        """BMOD ``tid`` as an update of its own — how a rank runs a task it
        was granted, and exactly the update its owner would have run: a
        stolen BMOD is always one whose update has no other member."""
        tg = self._tg
        b, src = int(tg.task_block[tid]), int(tg.task_src1[tid])
        K, I, J = int(tg.block_J[src]), int(tg.block_I[b]), int(tg.block_J[b])
        f = int(tg.task_flops[tid])
        return (K, J, slice(*self._spans[K][I]), (tid,), (b,), f,
                f + self._op_cost)


def _chains(ops: list[tuple], dead: list[bool]) -> tuple[list, dict]:
    """Per update, the next live update into the same panel (-1 for none);
    per destination panel, its first live update."""
    after, heads = [-1] * len(ops), {}
    following, panel = -1, None
    for o in range(len(ops) - 1, -1, -1):
        J = ops[o][1]
        if J != panel:
            following, panel = -1, J
        after[o] = following
        if not dead[o]:
            following = o
        heads[J] = following
    return after, heads


class UpdateQueue:
    """One job's progress through a rank's :class:`PanelUpdates`.

    :meth:`ready` is told every member BMOD the protocol releases and
    :meth:`finished` every update that ran; each returns the update that
    became runnable, if one did. An update is runnable when all its
    members are ready and every update before it into the same panel has
    run, so a block's updates land in ascending K whatever order their
    sources arrive in.

    ``done`` (per block) marks destinations a checkpoint supplies. An
    update with none of its members left never runs; one with some left
    still runs whole, because its shape — and so its rounding — must not
    depend on a checkpoint. ``partial[op]`` is then ``(tids, blocks, kept,
    flops, work)``: the members it executes, their destinations and
    counts, and the blocks whose values it must leave as they were.
    """

    def __init__(self, updates: PanelUpdates, done: np.ndarray | None = None):
        ops = self._ops = updates.ops
        self._of = updates.of
        self._need = list(updates.need)
        self._next, self._head = updates.next, dict(updates.heads)
        self.partial: dict[int, tuple] = {}
        if done is None or not done.any():
            return
        dead = [False] * len(ops)
        cost = updates._op_cost
        for o, (*_, tids, blocks, _, _) in enumerate(ops):
            kept = tuple(b for b in blocks if done[b])
            if not kept:
                continue
            live = [(t, b) for t, b in zip(tids, blocks) if not done[b]]
            dead[o] = not live
            f = sum(int(updates._tg.task_flops[t]) for t, _ in live)
            self.partial[o] = (
                tuple(t for t, _ in live), tuple(b for _, b in live), kept,
                f, f + cost * len(live),
            )
        self._next, self._head = _chains(ops, dead)

    def ready(self, tid: int) -> int | None:
        o = self._of[tid]
        self._need[o] -= 1
        if self._need[o] or self._head[self._ops[o][1]] != o:
            return None
        return o

    def finished(self, o: int) -> int | None:
        nxt = self._next[o]
        self._head[self._ops[o][1]] = nxt
        return nxt if nxt >= 0 and not self._need[nxt] else None


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
        (the runtime's ``SolvePlan`` of that rank), kept so
        that the workers of later factor jobs do not compile them again."""
        return self._compiled("_solve_plans", rank, build)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for table in self._TABLES:
            state.pop(table, None)
        return state
