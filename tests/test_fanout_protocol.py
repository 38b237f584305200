"""``repro.fanout.protocol`` on its own: no simulator, no thread, no process.

(a) Any valid interleaving of "finish a ready task" and "deliver a finished
block to one consumer" releases every task exactly once and never early;
the preconditions are checked from the task graph's source arrays, not
from the state's counters. (b) The executor-side recipient rule
(``consumers`` + ``remote_ranks``) against the independent predictors in
``repro.analysis``. (c) The compiled per-rank ``DispatchPlan`` against the
rules it was compiled from, asked block by block, and against the loop the
worker used to run per job — its panel updates cover the per-block BMOD
order that loop gave, its panel factors the owned BFAC/BDIVs. (d) Its
share-level counters, driven for every rank of a random map through a
random interleaving of ops and deliveries (after each rank's local pass),
release every op exactly once and never before the per-block rules allow.
(e) Over drawn shapes, P <= 6 and maps, the local columns are exactly the
wholly owned, closed ones, every domain column is local to its owner, and
each task runs once across the local passes and the dispatched ops.
Release *order* is pinned elsewhere: schedule replay through
``tests/blockfact_oracle.py``'s ``oracle_run_schedule`` and the
simulator goldens.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.comm_volume import communication_volume
from repro.analysis.memory import memory_usage
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph, assign_domains, plan_block_owners
from repro.fanout.dispatch import DispatchPlan, Readiness
from repro.fanout.protocol import FanoutState, remote_ranks
from repro.fanout.tasks import BDIV, BFAC, BMOD
from repro.machine.params import PARAGON
from repro.mapping import named_map
from repro.matrices import grid2d_matrix
from repro.matrices.problem import ProblemMatrix
from repro.matrices.spd import random_spd_sparse
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor
from tests.conftest import variable_partition


@pytest.fixture(scope="module")
def grid12_supernodal(grid12_pipeline):
    """The grid12 problem under a per-supernode B (§5)."""
    part = variable_partition(grid12_pipeline[1], 8)
    assert np.unique(part.widths).size >= 3
    return (TaskGraph(WorkModel(BlockStructure(part))),)


@pytest.fixture(params=["grid12_pipeline", "random_spd_pipeline"])
def tg(request):
    return request.getfixturevalue(request.param)[-1]


@pytest.fixture(
    params=["grid12_pipeline", "random_spd_pipeline", "grid12_supernodal"]
)
def any_policy_tg(request):
    return request.getfixturevalue(request.param)[-1]


def _run_interleaving(tg, rng):
    """Drive one random valid interleaving; returns the final state."""
    state = FanoutState(tg)
    released: set[int] = set()
    ready: list[int] = []
    pending: list[tuple[int, int]] = []  # (finished block, consumer id)
    delivered: set[tuple[int, int]] = set()
    mods_done = np.zeros(tg.nblocks, dtype=np.int64)

    def release(tid):
        if tid is None:
            return
        assert tid not in released, f"task {tid} released twice"
        released.add(tid)
        ready.append(tid)

    def check_ready(tid):
        kind, b = int(tg.task_kind[tid]), int(tg.task_block[tid])
        if kind == BMOD:
            for s in (int(tg.task_src1[tid]), int(tg.task_src2[tid])):
                assert s < 0 or (s, tid) in delivered, "BMOD before a source"
            return
        assert mods_done[b] == tg.nmod[b], "BFAC/BDIV before its last BMOD"
        if kind == BDIV:
            d = int(tg.diag_block[tg.block_J[b]])
            assert (d, b) in delivered, "BDIV before its diagonal"

    seeds = [int(t) for t in state.seeds()]
    expect = [
        int(t) for t in np.flatnonzero(tg.task_kind == BFAC)
        if tg.nmod[tg.task_block[t]] == 0
    ]
    assert sorted(seeds) == expect
    for tid in seeds:
        release(tid)

    while ready or pending:
        if ready and (not pending or rng.random() < 0.5):
            tid = ready.pop(rng.randrange(len(ready)))
            check_ready(tid)
            b = int(tg.task_block[tid])
            if tg.task_kind[tid] == BMOD:
                mods_done[b] += 1
                release(state.mod_finished(b))
            else:
                ids, blocks = state.consumers(b)
                diag = tg.block_I[b] == tg.block_J[b]
                assert np.array_equal(
                    blocks, ids if diag else tg.task_block[ids]
                )
                pending.extend((b, int(c)) for c in ids)
        else:
            b, c = pending.pop(rng.randrange(len(pending)))
            delivered.add((b, c))
            release(state.delivered(b, c))

    assert released == set(range(tg.ntasks))
    return state


def test_every_interleaving_releases_each_task_once(tg):
    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 2**32 - 1))
    def run(seed):
        state = _run_interleaving(tg, random.Random(seed))
        assert not state.mods_remaining.any()
        assert not state.missing.any()
        assert state.diag_ready[tg.block_I != tg.block_J].all()
        assert not state.diag_ready[tg.diag_block].any()

    run()


@pytest.mark.parametrize("P", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_recipients_match_the_independent_predictors(tg, P, seed):
    owners = np.random.default_rng(seed).integers(0, P, tg.nblocks)
    state = FanoutState(tg)
    messages = 0
    received = np.zeros(P, dtype=np.int64)
    for b in range(tg.nblocks):
        dests = remote_ranks(owners[state.consumers(b)[1]], owners[b])
        messages += dests.size
        received[dests] += int(tg.block_words[b]) * PARAGON.word_bytes
    assert messages == communication_volume(tg, owners).messages
    assert np.array_equal(
        received, memory_usage(tg, owners, P).received_bound_bytes
    )


def _old_arm_factor(tg, owners, rank):
    """What ``Worker._arm_factor`` computed per job before the plan was
    compiled: ``(mine, n_owned, bmod_order)``."""
    mine = owners[tg.task_block] == rank
    bmod_order: dict[int, list[int]] = {}
    for t in np.flatnonzero((tg.task_kind == BMOD) & mine):
        bmod_order.setdefault(int(tg.task_block[t]), []).append(int(t))
    return mine, int(mine.sum()), bmod_order


def _check_updates(tg, updates, bmod_order):
    """``updates`` (a rank's ``PanelUpdates``) against the per-block BMOD
    order the worker ran before updates were grouped: every owned BMOD in
    exactly one update, an update's members all from one source panel into
    one destination panel, its rows their rows, its counts their sums; the
    updates into a panel in ascending K, so each block receives its BMODs
    in the per-block order."""
    spans = tg.workmodel.structure.numeric_plan().spans
    cost = int(tg.workmodel.op_fixed_cost)
    received: dict[int, list[int]] = {}
    last = (-1, -1)
    for o, (K, J, rows, tids, blocks, flops, work) in enumerate(updates.ops):
        assert (J, K) > last
        last = (J, K)
        tids = list(tids)
        assert tids == sorted(tids)
        assert all(updates.of[t] == o for t in tids)
        assert list(blocks) == tg.task_block[tids].tolist()
        assert set(tg.block_J[tg.task_src1[tids]].tolist()) == {K}
        assert set(tg.block_J[list(blocks)].tolist()) == {J}
        want = np.concatenate([
            np.arange(*spans[K][int(tg.block_I[b])]) for b in blocks
        ])
        got = np.arange(rows.start, rows.stop) if isinstance(
            rows, slice) else rows
        assert np.array_equal(got, want)
        assert isinstance(rows, slice) == bool(np.all(np.diff(want) == 1))
        assert flops == int(tg.task_flops[tids].sum())
        assert work == flops + cost * len(tids)
        for t, b in zip(tids, blocks):
            received.setdefault(b, []).append(t)
    assert received == bmod_order
    assert len(updates.of) == sum(map(len, bmod_order.values()))


def _check_factors(tg, owners, rank, factors, local):
    """``factors`` (a rank's panel factors) against the owned BFAC / BDIV
    tasks: one per column the rank owns blocks of and that is not
    ``local``, ascending, the BFAC first where it owns the diagonal, the
    BDIVs in the column's block order, its rows their stacked rows, its
    counts their sums."""
    st = tg.workmodel.structure
    cost = int(tg.workmodel.op_fixed_cost)
    got = []
    for K, rows, tids, blocks, bfac, flops, work in factors:
        sub = tg.subdiag_blocks[tg.subdiag_ptr[K] : tg.subdiag_ptr[K + 1]]
        held = [t for t, b in enumerate(sub) if owners[b] == rank]
        d = int(tg.diag_block[K])
        assert bfac == (owners[d] == rank) and (bfac or held)
        assert list(blocks) == [d] * bfac + sub[held].tolist()
        assert list(tids) == [int(tg.bfac_task[d])] * bfac + [
            int(tg.bdiv_task[b]) for b in sub[held]]
        want = [r for t in held for r in range(st.row_splits[K][t],
                                               st.row_splits[K][t + 1])]
        if rows is None:
            assert not held
        else:
            got_rows = np.arange(rows.start, rows.stop) if isinstance(
                rows, slice) else rows
            assert got_rows.tolist() == want
            assert isinstance(rows, slice) == (held[-1] - held[0] + 1
                                               == len(held))
        assert flops == int(tg.task_flops[list(tids)].sum())
        assert work == flops + cost * len(tids)
        got.append(K)
    assert got == sorted(set(tg.block_J[owners == rank].tolist()) - local)


def _check_local_pass(tg, owners, rank, plan):
    """The rank's local pass: its columns are exactly those owned whole
    and closed (every update into one comes from one of them), and it runs
    exactly the owned tasks into them — their blocks, per-kind counts,
    flop and work sums, and one op per column and per (K, J) pair among
    its BMODs. Returns the local columns."""
    local = set(plan.local_cols)
    assert plan.local_cols == sorted(local)
    mods = tg.task_kind == BMOD
    src, dst = tg.block_J[tg.task_src1], tg.block_J[tg.task_block]
    for k in range(tg.npanels):
        # Local exactly when owned whole and updated only from local columns.
        assert (k in local) == (
            bool((owners[tg.block_J == k] == rank).all())
            and set(src[mods & (dst == k)].tolist()) <= local)
    tids = [t for t in range(tg.ntasks) if int(dst[t]) in local]
    tids_, blocks, counts, flops, work, nops = plan.local_pass
    assert tids_ == tids
    assert blocks == [b for b in range(tg.nblocks)
                      if int(tg.block_J[b]) in local]
    assert counts == {name: int((tg.task_kind[tids] == code).sum())
                      for name, code in (("BFAC", BFAC), ("BDIV", BDIV),
                                         ("BMOD", BMOD))}
    assert counts["BFAC"] == len(local)
    assert flops == int(tg.task_flops[tids].sum())
    assert work == flops + int(tg.workmodel.op_fixed_cost) * len(tids)
    pairs = {(int(src[t]), int(dst[t])) for t in tids if mods[t]}
    assert nops == len(local) + len(pairs)
    return local


@pytest.mark.parametrize("P", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_compiled_plan_equals_the_protocol(any_policy_tg, P, seed):
    tg = any_policy_tg
    owners = np.random.default_rng(seed).integers(0, P, tg.nblocks)
    state = FanoutState(tg)
    op_cost = int(tg.workmodel.op_fixed_cost)
    for rank in range(P):
        plan = DispatchPlan(tg, owners, rank)
        for b in range(tg.nblocks):
            ids, blocks = state.consumers(b)
            assert plan.local[b] == [
                int(c) for c, blk in zip(ids, blocks) if owners[blk] == rank
            ]
            if owners[b] == rank:
                want = remote_ranks(owners[blocks], rank)
                assert plan.recipients[b] == [int(d) for d in want]
            else:
                assert plan.recipients[b] is None
            assert plan.coords[b] == (tg.block_I[b], tg.block_J[b])
        mine, n_owned, bmod_order = _old_arm_factor(tg, owners, rank)
        assert np.array_equal(plan.mine, mine)
        assert plan.n_owned == n_owned
        local = _check_local_pass(tg, owners, rank, plan)
        _check_updates(tg, plan.updates, {
            b: ts for b, ts in bmod_order.items()
            if int(tg.block_J[b]) not in local})
        _check_factors(tg, owners, rank, plan.factors, local)
        for tid, (kind, b, I, J, K, flops, work) in enumerate(plan.task):
            assert (kind, b) == (tg.task_kind[tid], tg.task_block[tid])
            assert (I, J) == (tg.block_I[b], tg.block_J[b])
            src = tg.task_src1[tid]
            assert K == (tg.block_J[src] if kind == BMOD else J)
            assert (flops, work) == (
                tg.task_flops[tid], tg.task_flops[tid] + op_cost
            )
        assert all(
            type(x) is int for row in plan.task[:: max(1, tg.ntasks // 50)]
            for x in row
        )


@pytest.mark.parametrize("P", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_share_readiness_implies_the_protocol(any_policy_tg, P, seed):
    """Every rank's ``Readiness`` over a random block map, driven through
    one random interleaving of "run a ready op" and "deliver a finished
    block to one recipient": each op is released once, only when every
    task in it is ready by the per-block rules (a BMOD's sources are held
    here and the BMODs into its block before it ran in ascending K; a
    BFAC / BDIV's block has absorbed every BMOD and ``L_KK`` is held
    here), and the whole factor runs — each rank's local pass first, whose
    blocks are then held there and on their way to their recipients."""
    tg = any_policy_tg
    rng = random.Random(seed)
    owners = np.random.default_rng(seed).integers(0, P, tg.nblocks)
    plans = [DispatchPlan(tg, owners, r) for r in range(P)]
    ready: list[list[int]] = [[] for _ in range(P)]
    states = [Readiness(plan, ready[r].append)
              for r, plan in enumerate(plans)]
    held: list[set[int]] = [set() for _ in range(P)]
    applied: dict[int, list[int]] = {}
    pending: list[tuple[int, int]] = []
    ran: list[int] = []
    for r, plan in enumerate(plans):
        tids, blocks, *_ = plan.local_pass
        ran += tids
        held[r].update(blocks)
        pending += [(dst, b) for b in blocks for dst in plan.recipients[b]]
    while any(ready) or pending:
        runnable = [r for r in range(P) if ready[r]]
        if runnable and (not pending or rng.random() < 0.5):
            r = rng.choice(runnable)
            o = ready[r].pop(rng.randrange(len(ready[r])))
            plan = plans[r]
            if o >= plan.nupdates:
                K, _, tids, blocks, bfac, _, _ = plan.factors[o - plan.nupdates]
                d = int(tg.diag_block[K])
                assert bfac or d in held[r], "PFAC before L_KK"
                for b in blocks:
                    assert len(applied.get(b, ())) == tg.nmod[b], (
                        "PFAC before a BMOD into its share")
                    held[r].add(b)
                    pending += [(dst, b) for dst in plan.recipients[b]]
            else:
                K, _, _, tids, blocks, _, _ = plan.updates.ops[o]
                for t, b in zip(tids, blocks):
                    for src in (tg.task_src1[t], tg.task_src2[t]):
                        assert src < 0 or src in held[r], "PMOD before a source"
                    assert all(k < K for k in applied.get(b, ())), (
                        "updates out of ascending K")
                    applied.setdefault(b, []).append(K)
            ran += tids
            states[r].finished(o)
        else:
            dst, b = pending.pop(rng.randrange(len(pending)))
            assert b not in held[dst]
            held[dst].add(b)
            states[dst].arrived(b)
    assert sorted(ran) == list(range(tg.ntasks))
    assert all(s.need == [0] * len(s.need) for s in states)


@functools.lru_cache(maxsize=None)
def _shape(kind, n, B):
    """A small task graph: an ``n x n`` grid (nested dissection) or a
    random SPD matrix of order ``6 n`` (minimum degree), panels of ``B``."""
    if kind == "grid":
        problem = grid2d_matrix(n)
        sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
    else:
        A = random_spd_sparse(6 * n, density=0.08, seed=n)
        sf = symbolic_factor(A, order_problem(ProblemMatrix("R", A), "mmd"))
    return TaskGraph(WorkModel(BlockStructure(BlockPartition(sf, B))))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(kind=st.sampled_from(["grid", "random"]), n=st.integers(3, 9),
       B=st.sampled_from([2, 4, 8]), P=st.integers(1, 6),
       mapping=st.sampled_from(["planned", "DW/CY", "cyclic", "random"]),
       seed=st.integers(0, 2**16))
def test_local_columns_are_closed_and_run_each_task_once(
        kind, n, B, P, mapping, seed):
    """Over shapes, P <= 6 and maps: every rank's local columns are owned
    whole and closed (:func:`_check_local_pass`); under §2.3's owners
    (``plan_block_owners``) every domain column is local to its owner;
    and across the ranks' local passes and dispatched ops each task runs
    exactly once, at its owner."""
    tg = _shape(kind, n, B)
    if mapping == "random":
        owners = np.random.default_rng(seed).integers(0, P, tg.nblocks)
    elif mapping == "planned":
        owners = plan_block_owners(tg, named_map(tg.workmodel, P, "DW/CY"))
    else:
        owners = np.asarray(named_map(tg.workmodel, P, mapping).owner_array(
            tg.block_I, tg.block_J))
    runs = np.zeros(tg.ntasks, dtype=np.int64)
    local_cols = {}
    for rank in range(P):
        plan = DispatchPlan(tg, owners, rank)
        local_cols[rank] = _check_local_pass(tg, owners, rank, plan)
        tids = [plan.local_pass[0]] + [op[3] for op in plan.updates.ops] + [
            op[2] for op in plan.factors]
        for t in tids:
            np.add.at(runs, list(t), 1)
            assert (owners[tg.task_block[list(t)]] == rank).all()
    assert (runs == 1).all()
    if mapping == "planned":
        dom = assign_domains(tg.workmodel, P).panel_owner
        for k in np.flatnonzero(dom >= 0).tolist():
            assert k in local_cols[int(dom[k])]
