"""The per-rank dispatch plan: what one rank's event loop looks up per op.

:mod:`repro.fanout.protocol` states §2.3's rules over numpy arrays. A
worker asks them thousands of times per job and always gets the same
answers, which depend on ``(task graph, owners, rank)`` alone.
:class:`DispatchPlan` asks every question once — through
``FanoutState.consumers`` and ``remote_ranks``, never by restating a rule
— and keeps the answers as plain Python ints and lists.

A column is **local** to a rank that owns all of it and whose every update
comes from a local column — every domain column of §2.3's owners. The
rank factors its local columns in one sequential pass before its event
loop (``BlockCholesky.factor(cols)``): no op, counter or message among
them. What an executor *dispatches*, and tracks readiness for, is the
rest, by **share** — the blocks of one column a rank owns. The
BFAC and BDIVs of a share of column K run as one panel factor,
``PFAC(K)`` (one dtrsm over its stacked rows,
:meth:`repro.numeric.blockfact.BlockCholesky.pfac`); the BMODs from source
panel K into destination panel J whose destinations it owns as one panel
update, ``PMOD(K, J)`` (:class:`PanelUpdates`). The protocol's rules are
only coarsened:

* a ``PFAC(K)`` waits for the rank's updates into column K and, where
  another rank owns ``L_KK``, for ``L_KK``;
* a ``PMOD(K, J)`` waits for the shares of column K it reads (a local
  share is final before it starts), then for every earlier update of the
  rank into panel J, so a block's updates are applied in ascending K;
* a remote share has arrived once every block of it this rank needs has.

One chain per destination panel — its updates in ascending K, then its
panel factor — carries the last two rules. The block stays the unit of
data. The plan is derived state, kept by whoever holds the pattern, never
shipped; the counters are a per-job :class:`Readiness`.
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
    local:
        Per block: the consumers (``FanoutState.consumers`` ids) whose
        owner is this rank, in protocol order.
    recipients:
        Per owned block: the distinct remote ranks its final value travels
        to, ascending; ``None`` for a block this rank does not own.
    local_cols, local_pass:
        The rank's local columns, ascending, and what its one pass over
        them runs, ``(tids, blocks, counts, flops, work, nops)``: their
        tasks and blocks, ascending, the tasks per kind name, the sums of
        their counts, and the ops it stands for (one per column and per
        (K, J) pair among them). No op below holds any of those tasks.
    updates, factors:
        The rank's dispatched ops. Op ``o < nupdates`` is
        ``updates.ops[o]``, a panel update; op ``nupdates + f`` is
        ``factors[f]``, a panel factor
        ``(K, rows, tids, blocks, bfac, flops, work)``: its stacked rows of
        column K (a slice when contiguous, an index array, or None), its
        BFAC (when ``bfac``) and BDIVs with their blocks, diagonal first,
        and the sums of their counts. Ascending K.
    wait, pred, wakes:
        Per op: the events it waits for, whether an op of its panel's chain
        comes before it, and the ops its finishing releases: the next op of
        the chain, then (a panel factor's) the updates that read its share.
    event, need, event_wakes:
        Per block, the arrival event it counts toward here (-1 for none):
        a remote block's share, or a remote ``L_KK``'s panel factor. Per
        event, how many arrivals it needs and the ops it then releases.
    grantable:
        Ready-queue item -> the task a thief may be granted for it:
        ``ntasks + op`` for the one member of a panel update with a single
        destination. No other item is granted.
    """

    def __init__(self, tg: TaskGraph, owners: np.ndarray, rank: int):
        owners = np.asarray(owners)
        state = FanoutState(tg)
        kind, block, flops = tg.task_kind, tg.task_block, tg.task_flops
        I, J = tg.block_I[block], tg.block_J[block]
        # BFAC/BDIV carry ``src1 == -1``; their source panel is their own.
        K = np.where(kind == BMOD, tg.block_J[tg.task_src1], J)
        work = flops + int(tg.workmodel.op_fixed_cost)
        self.task = list(zip(*(a.tolist() for a in (
            kind, block, I, J, K, flops, work))))
        self.coords = list(zip(tg.block_I.tolist(), tg.block_J.tolist()))
        self.mine = mine = owners[block] == rank
        self.n_owned = int(mine.sum())
        self.owned = np.flatnonzero(owners == rank).tolist()
        # Ask the protocol about every block, then answer for this rank
        # with array passes over the answers laid end to end.
        asked = [state.consumers(b) for b in range(tg.nblocks)]
        ids = np.concatenate([ids for ids, _ in asked])
        target_owners = owners[np.concatenate([blocks for _, blocks in asked])]
        of_block = np.repeat(np.arange(tg.nblocks),
                             [ids.shape[0] for ids, _ in asked])
        here = target_owners == rank
        self.local = _split(ids[here], of_block[here], tg.nblocks)
        # One ``remote_ranks`` call for all owned blocks: a target elsewhere
        # is tagged with the block it is a target of (tags start above any
        # rank), one here stays ``rank`` and so drops out as it always did.
        P = int(owners.max()) + 1
        tagged = np.where(here, rank, (of_block + 1) * P + target_owners)
        pairs = remote_ranks(tagged[owners[of_block] == rank], rank)
        recipients = _split(pairs % P, pairs // P - 1, tg.nblocks)
        self.recipients = [dsts if owner == rank else None for dsts, owner
                           in zip(recipients, owners.tolist())]
        # Local columns in one ascending pass: a column is updated only by
        # columns before it.
        local = np.bincount(tg.block_J, owners != rank, tg.npanels) == 0
        for k, span in enumerate(tg.workmodel.structure.numeric_plan().spans):
            if not local[k]:
                local[list(span)] = False
        ran = local[J]
        n = np.bincount(kind[ran], minlength=3).tolist()
        self.local_cols = np.flatnonzero(local).tolist()
        self.local_pass = (
            np.flatnonzero(ran).tolist(),
            np.flatnonzero(local[tg.block_J]).tolist(),
            dict(zip(("BFAC", "BDIV", "BMOD"), n)),
            int(flops[ran].sum()), int(work[ran].sum()),
            len(self.local_cols) + np.unique(
                (K * tg.npanels + J)[ran & (kind == BMOD)]).size,
        )
        self._tg = tg
        self.updates = updates = PanelUpdates(tg, mine & ~ran)
        self.nupdates = len(updates.ops)
        self.factors = _panel_factors(tg, owners, rank, local)
        self._compile_readiness(owners.tolist(), rank, local.tolist())
        self.grantable = {tg.ntasks + o: op[3][0] for o, op in
                          enumerate(updates.ops) if len(op[3]) == 1}

    def _compile_readiness(self, owners: list, rank: int, local: list) -> None:
        """The per-op and per-event counters of the rules in the module
        docstring, from ``local``: who here consumes which block. A local
        column's share is final before any op runs: no op waits for it."""
        tg, nu, of = self._tg, self.nupdates, self.updates.of
        block_J, diag = tg.block_J.tolist(), tg.diag_block.tolist()
        fac_of = {f[0]: nu + i for i, f in enumerate(self.factors)}
        nops = nu + len(self.factors)
        reads: list[set] = [set() for _ in range(nops)]
        self.wakes: list[list[int]] = [[] for _ in range(nops)]
        self.event = [-1] * tg.nblocks
        self.need: list[int] = []
        self.event_wakes: list[list[int]] = []
        events: dict[tuple, int] = {}
        for b, consumers in enumerate(self.local):
            k, g = block_J[b], owners[b]
            if not consumers or local[k]:
                continue
            if b == diag[k]:
                # L_KK: consumed here by this rank's PFAC(K).
                if g != rank:
                    self.event[b] = len(self.need)
                    self.need.append(1)
                    self.event_wakes.append([fac_of[k]])
                continue
            key = (k, g)
            if g == rank:
                # This rank's share: it arrives when its PFAC(K) has run.
                released = self.wakes[fac_of[k]]
            else:
                if key not in events:
                    events[key] = len(self.need)
                    self.need.append(0)
                    self.event_wakes.append([])
                e = self.event[b] = events[key]
                self.need[e] += 1
                released = self.event_wakes[e]
            for o in {of[c] for c in consumers}:
                if key not in reads[o]:
                    reads[o].add(key)
                    released.append(o)
        for released in (*self.wakes, *self.event_wakes):
            released.sort()
        # Each destination panel's chain: the rank's updates into it in
        # ascending K, then its panel factor.
        chains: dict[int, list[int]] = {}
        for o, op in enumerate((*self.updates.ops, *self.factors)):
            chains.setdefault(op[1] if o < nu else op[0], []).append(o)
        self.pred = [False] * nops
        for chain in chains.values():
            for a, b in zip(chain, chain[1:]):
                self.wakes[a].insert(0, b)
                self.pred[b] = True
        self.wait = [len(r) + p for r, p in zip(reads, self.pred)]
        for k, o in fac_of.items():
            self.wait[o] += self.event[diag[k]] >= 0

    def sources(self, tid: int) -> list[int]:
        """The final blocks a granted BMOD reads: its one or two sources."""
        tg = self._tg
        srcs = (int(tg.task_src1[tid]), int(tg.task_src2[tid]))
        return [s for i, s in enumerate(srcs) if s >= 0 and s not in srcs[:i]]


def _panel_factors(tg: TaskGraph, owners: np.ndarray, rank: int,
                   local: np.ndarray) -> list:
    """Rank ``rank``'s panel factors, one per column it owns blocks of and
    that is not ``local``, ascending (see :attr:`DispatchPlan.factors`)."""
    structure = tg.workmodel.structure
    cost = int(tg.workmodel.op_fixed_cost)
    task_flops = tg.task_flops.tolist()
    factors = []
    held_cols = tg.block_J[(owners == rank) & ~local[tg.block_J]]
    for k in np.unique(held_cols).tolist():
        d = int(tg.diag_block[k])
        sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
        held = np.flatnonzero(owners[sub] == rank).tolist()
        splits = structure.row_splits[k].tolist()
        rows = None if not held else stacked_rows(
            [(splits[t], splits[t + 1]) for t in held])
        bfac = bool(owners[d] == rank)
        blocks = [d] * bfac + sub[held].tolist()
        tids = [int(tg.bfac_task[d])] * bfac + tg.bdiv_task[
            sub[held]].tolist()
        f = sum(task_flops[t] for t in tids)
        factors.append((k, rows, tuple(tids), tuple(blocks), bfac, f,
                        f + cost * len(tids)))
    return factors


def stacked_rows(pieces: list):
    """The slab rows of ``(lo, hi)`` spans, stacked: a slice when they are
    contiguous, else an index array."""
    if all(a[1] == b[0] for a, b in zip(pieces, pieces[1:])):
        return slice(pieces[0][0], pieces[-1][1])
    return np.concatenate([np.arange(*p) for p in pieces])


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
        tids, blocks, I, J, K, flops = (a[order].tolist() for a in (
            mods, blocks, I, J, K, tg.task_flops[mods]))
        self.ops: list[tuple] = []
        self.of: dict[int, int] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            rows = stacked_rows([spans[K[lo]][i] for i in I[lo:hi]])
            f = sum(flops[lo:hi])
            self.of.update(dict.fromkeys(tids[lo:hi], len(self.ops)))
            self.ops.append((
                K[lo], J[lo], rows, tuple(tids[lo:hi]), tuple(blocks[lo:hi]),
                f, f + op_cost * (hi - lo),
            ))

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


class Readiness:
    """One job's progress through a rank's :class:`DispatchPlan` ops.

    ``push(o)`` is called once for every op that becomes runnable: at
    construction for the seeds, then from :meth:`arrived` — told every
    block that became final here without this rank computing it — and
    :meth:`finished`, told every op that ran.
    """

    def __init__(self, plan: DispatchPlan, push):
        self._plan = plan
        self._push = push
        self.wait = list(plan.wait)
        self.need = list(plan.need)
        for o, n in enumerate(self.wait):
            if not n:
                push(o)

    def _release(self, ops: list[int]) -> None:
        wait, push = self.wait, self._push
        for o in ops:
            wait[o] -= 1
            if not wait[o]:
                push(o)

    def arrived(self, b: int) -> None:
        """Block ``b`` became final here (received)."""
        e = self._plan.event[b]
        if e >= 0:
            self.need[e] -= 1
            if not self.need[e]:
                self._release(self._plan.event_wakes[e])

    def finished(self, o: int) -> None:
        """Op ``o`` ran: release the next op of its chain and, for a panel
        factor, the updates that read its share."""
        self._release(self._plan.wakes[o])


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
        return self._compiled("_dispatch_plans", rank, lambda: DispatchPlan(
            self.tg, self.owners, rank))

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
