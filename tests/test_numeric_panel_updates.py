"""The panel update: every BMOD from source panel K into destination panel J
whose destination a processor owns, as one dgemm over K's stacked rows and
one scatter into J's slab (``BlockCholesky.pmod``, grouped by
``repro.fanout.dispatch.PanelUpdates``).

A stacked dgemm need not round like the same rows computed alone, so the
invariant is: executors at the same grouping compute the same bits. The
sequential factor, the thread pool and every ``mp`` rank of a ``1 x P``
grid (P = 1, 2, 3) group whole (K, J) pairs and agree bit for bit; at
P = 4 and 6 (2 x 2, 2 x 3) a rank stacks its share of the rows and the
factor is bitwise the grouped oracle's (``tests/blockfact_oracle.py``);
all of them agree with the per-block factor to rounding.
"""

from __future__ import annotations

import itertools
import queue
import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro.analysis.comm_volume import communication_volume
from repro.analysis.trace_replay import validate_trace
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.config import RunConfig
from repro.fanout import TaskGraph
from repro.fanout.dispatch import DispatchPlan, PanelUpdates
from repro.fanout.tasks import BMOD
from repro.matrices import (
    cube3d_matrix,
    dense_matrix,
    fleet_like_matrix,
    grid2d_matrix,
)
from repro.matrices.problem import ProblemMatrix
from repro.matrices.spd import random_spd_sparse
from repro.numeric import BlockCholesky
from repro.numeric.parallel import parallel_block_cholesky
from repro.ordering import order_problem
from repro.runtime import (
    LinkFabric,
    PatternContext,
    PoolJob,
    Worker,
    WorkerPool,
    plan_owners,
    run_mp_fanout,
    wire,
)
from repro.runtime.arena import shm_available
from repro.runtime.engine import PatternPlan
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.runtime.recovery import run_job
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import (
    oracle_bmod_factor,
    oracle_grouped_cholesky,
)
from tests.conftest import PARTITIONS, variable_partition

TRANSPORTS = ["inline"] + (["shm"] if shm_available() else [])

MATRICES = {
    "grid2d": lambda: (grid2d_matrix(11).A, "nd"),
    "cube3d": lambda: (cube3d_matrix(5).A, "nd"),
    "fleet_like": lambda: (fleet_like_matrix(120, seed=1).A, "mmd"),
    "random_spd": lambda: (random_spd_sparse(150, density=0.04, seed=7),
                           "mmd"),
    "dense": lambda: (dense_matrix(40).A, None),
}


def _structure(name, policy):
    A, method = MATRICES[name]()
    problem = ProblemMatrix(name, sparse.csc_matrix(A))
    ordering = None if method is None else order_problem(problem, method)
    sf = symbolic_factor(problem.A, ordering)
    return BlockStructure(PARTITIONS[policy](sf, 8)), sf.A


def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


@pytest.mark.parametrize("policy", ["uniform", "supernodal"])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_panel_updates_agree_with_the_per_block_factor(name, policy):
    """To 1e-14 relative on every test matrix, for the whole-pair grouping
    and for the 2 x 2 grid's shares."""
    bs, A = _structure(name, policy)
    ref = oracle_bmod_factor(bs, A).to_csc()
    scale = abs(ref).max()
    L = BlockCholesky(bs, A).factor().to_csc()
    assert abs(L - ref).max() <= 1e-14 * scale
    wm = WorkModel(bs)
    owners, _ = plan_owners(wm, TaskGraph(wm), 4, "DW/CY")
    grouped = oracle_grouped_cholesky(bs, A, owners).to_csc()
    assert abs(grouped - ref).max() <= 1e-14 * scale


def _grid30():
    """A 30 x 30 grid, nd, B = 32: on a 2 x 2 grid its panel updates round
    unlike the whole-pair ones in some entries of ``L`` (192 with
    OpenBLAS 0.3.31's Haswell kernels), so a grouped-oracle cell is not
    the sequential factor in disguise, as it is on grid12."""
    p = grid2d_matrix(30)
    sf = symbolic_factor(p.A, order_problem(p, "nd"))
    return sf, BlockStructure(BlockPartition(sf, 32))


@pytest.fixture(scope="module", params=[
    "grid12-uniform", "grid12-supernodal", "grid30-b32",
])
def problem(request, grid12_pipeline):
    """``(structure, tg, A, sequential L)`` of one test problem."""
    _, sf, _, bs, _, tg = grid12_pipeline
    if request.param == "grid12-supernodal":
        bs = BlockStructure(variable_partition(sf, 8))
        assert np.unique(bs.partition.widths).size >= 3
    elif request.param == "grid30-b32":
        sf, bs = _grid30()
    if request.param != "grid12-uniform":
        tg = TaskGraph(WorkModel(bs))
    A = sf.A.tocsc()
    return bs, tg, A, BlockCholesky(bs, A).factor().to_csc()


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 5, 6])
def test_mp_is_bitwise_its_grouping(problem, nprocs):
    """inline / shm x static / dynamic: bit-equal to the sequential factor
    on a 1 x P grid, to the grouped oracle on a 2 x P/2 one."""
    bs, tg, A, seq = problem
    owners, name = plan_owners(tg.workmodel, tg, nprocs, "DW/CY")
    want = seq
    if nprocs in (4, 6):
        want = oracle_grouped_cholesky(bs, A, owners).to_csc()
        assert abs(want - seq).max() <= 1e-14 * abs(seq).max()
    for transport in TRANSPORTS:
        for schedule in ("static", "dynamic"):
            res = run_mp_fanout(bs, A, tg, owners, nprocs, mapping=name,
                                transport=transport, schedule=schedule)
            assert _bitwise(res.to_csc(), want), (transport, schedule)
            assert res.metrics.tasks_total == tg.ntasks


def test_threads_are_bitwise_sequential(problem):
    bs, tg, A, seq = problem
    for nthreads in (1, 2, 4):
        res = parallel_block_cholesky(bs, A, tg, nthreads=nthreads)
        assert _bitwise(res.to_csc(), seq), nthreads
        assert res.tasks_executed == tg.ntasks


def test_threads_under_a_short_switch_interval(problem):
    """More threads than cores and a thread switch every microsecond: an
    update lost, or applied out of ascending K, would change the bits."""
    bs, tg, A, seq = problem
    out: list = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(target=lambda: out.append(
            parallel_block_cholesky(bs, A, tg, nthreads=8)
        ), daemon=True)
        t.start()
        t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not t.is_alive()
    assert _bitwise(out[0].to_csc(), seq)


def test_every_owned_bmod_runs_once_in_ascending_k(problem):
    """A traced P = 4 run: the panel-update spans of a rank cover each of
    its BMODs once, and its updates into one panel come in ascending K and
    before the panel factor of its share of that panel; the panel-factor
    spans cover each BFAC and BDIV once, one per (column, owner). A rank's
    local pass (one ``LOCAL`` span, its first) runs the rest, and the ops
    it stands for plus the dispatched ones are one per update and share."""
    bs, tg, A, _ = problem
    owners, name = plan_owners(tg.workmodel, tg, 4, "DW/CY")
    res = run_mp_fanout(bs, A, tg, owners, 4, mapping=name, trace=True)
    validate_trace(res.trace, res.metrics, tg=tg, owners=owners, strict=True)
    seen: list[int] = []
    factored: list[int] = []
    local_ops = 0
    for rank, events in res.trace.per_worker(0).items():
        last: dict[int, int] = {}
        ran: set[int] = set()
        for e in events:
            if e.cat != "task":
                continue
            tids = e.args["tids"]
            assert (owners[tg.task_block[tids]] == rank).all()
            if e.name == "LOCAL":
                assert not ran and not last
                mods = tg.task_kind[tids] == BMOD
                seen += np.asarray(tids)[mods].tolist()
                factored += np.asarray(tids)[~mods].tolist()
                local_ops += e.args["ops"]
                continue
            if e.name.startswith("PFAC"):
                (K,) = set(tg.block_J[tg.task_block[tids]].tolist())
                assert e.name == f"PFAC({K})" and K not in ran
                ran.add(K)
                factored += tids
                continue
            K = set(tg.block_J[tg.task_src1[tids]].tolist())
            J = set(tg.block_J[tg.task_block[tids]].tolist())
            assert len(K) == len(J) == 1
            (K,), (J,) = K, J
            assert K > last.get(J, -1) and J not in ran
            last[J] = K
            seen += tids
    mods = np.flatnonzero(tg.task_kind == BMOD)
    assert sorted(seen) == mods.tolist()
    assert sorted(factored) == np.flatnonzero(tg.task_kind != BMOD).tolist()
    ops = sum(len(PanelUpdates(tg, owners[tg.task_block] == r).ops)
              for r in range(4))
    shares = len(set(zip(owners.tolist(), tg.block_J.tolist())))
    assert local_ops > 0
    assert res.metrics.ops_total + local_ops == ops + shares


@pytest.mark.parametrize("nprocs", [1, 2, 3])
def test_ops_per_factor_on_a_1xp_grid(problem, nprocs):
    """Every column has one owner on a ``1 x P`` grid, so a factor runs
    one panel factor per panel and one panel update per (K, J) pair,
    whatever P — in the ranks' local passes or dispatched, exactly the
    ops their plans hold; the task-graph and message ledgers are the
    paper's."""
    bs, tg, A, _ = problem
    owners, name = plan_owners(tg.workmodel, tg, nprocs, "DW/CY")
    res = run_mp_fanout(bs, A, tg, owners, nprocs, mapping=name)
    mods = tg.task_kind == BMOD
    pairs = set(zip(tg.block_J[tg.task_src1[mods]].tolist(),
                    tg.block_J[tg.task_block[mods]].tolist()))
    m = res.metrics
    plans = [DispatchPlan(tg, owners, r) for r in range(nprocs)]
    assert [w.ops_executed for w in m.workers] == [
        p.nupdates + len(p.factors) for p in plans]
    local = sum(p.local_pass[5] for p in plans)
    assert local > 0
    assert sum(w.ops_executed for w in m.workers) + local == (
        tg.npanels + len(pairs))
    assert m.tasks_total == tg.ntasks
    pred = communication_volume(tg, owners)
    assert (m.messages_total, m.bytes_total) == (pred.messages, pred.bytes)


@pytest.mark.parametrize("nprocs", [2, 4])
def test_a_restart_is_bitwise_the_clean_run(problem, nprocs):
    """A crashed attempt leaves nothing behind: the job re-runs from
    scratch on the same crew and block map, so its factor is bitwise the
    clean one at every grouping."""
    bs, tg, A, _ = problem
    owners, name = plan_owners(tg.workmodel, tg, nprocs, "DW/CY")
    clean = run_mp_fanout(bs, A, tg, owners, nprocs, mapping=name)
    plan = PatternPlan.create(
        bs, tg, RunConfig(nprocs=nprocs), owners=owners, mapping_name=name,
    )
    crash = FaultPlan(crash=(CrashSpec(1, 5),))
    try:
        with WorkerPool(nprocs) as pool:
            again = run_job(pool, plan, A.tocsc(), 2, itertools.count(),
                            fault_plan=crash)
    finally:
        plan.destroy()
    rep = again.failure_report
    assert (rep.outcome, again.metrics.nprocs) == ("recovered", nprocs)
    assert _bitwise(again.to_csc(), clean.to_csc())


def test_service_validates_a_two_row_grid_to_rounding():
    """``validate=True`` at P = 4: the factor is the grouped one — on
    grid2d(30) at B = 32 not the sequential one bit for bit, with the BLAS
    builds this was written against — and the check accepts it."""
    from repro.service import FactorService

    A = grid2d_matrix(30).A.tocsc()
    with FactorService(validate=True, nprocs=4, ordering="nd",
                       block_size=32) as svc:
        res = svc.factor(A)
        entry = svc.cache.peek(res.pattern_id)
    assert res.record.attempts == 1
    A_perm = A[res.perm][:, res.perm].tocsc()
    want = oracle_grouped_cholesky(entry.structure, A_perm, entry.owners)
    assert _bitwise(res.L, want.to_csc())
    seq = BlockCholesky(entry.structure, A_perm).factor().to_csc()
    assert abs(res.L - seq).max() <= 1e-14 * abs(seq).max()


class TestStealing:
    """Only a one-member panel update is granted, as that task's id; an
    update with several destinations, and a panel factor, never leave
    their owner."""

    @staticmethod
    def _victim(pipeline):
        _, sf, _, bs, wm, tg = pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        A = sf.A.tocsc()
        ctx = PatternContext(
            pattern_id="t", structure=bs, tg=tg, owners=owners,
            indptr=A.indptr, indices=A.indices,
            config=RunConfig(schedule="dynamic"),
        )
        fabric = LinkFabric(2, queue)
        job = PoolJob(seq=0, pattern_id="t", values=A.data)
        w = Worker(0, ctx, job, None, fabric, queue.Queue())
        w._setup(True)
        while len(w.scheduler):
            w.scheduler.pop()
        return w, fabric

    @staticmethod
    def _answer(w, fabric):
        w.receive(wire.pack_steal_req(1, 0))
        out = []
        while not fabric.inboxes[1].empty():
            item = fabric.inboxes[1].get_nowait()
            out += item if isinstance(item, list) else [item]
        return wire.unpack(out[-1])

    def test_a_multi_destination_update_is_never_granted(
        self, grid12_pipeline
    ):
        w, fabric = self._victim(grid12_pipeline)
        n = w.tg.ntasks
        multi = [o for o, op in enumerate(w.plan.updates.ops)
                 if len(op[3]) > 1]
        assert len(multi) >= 2
        for o in multi:
            w.scheduler.push(n + o)
        answer = self._answer(w, fabric)
        assert answer.kind == wire.STEAL_DENY
        assert len(w.scheduler) == len(multi)

    def test_a_one_member_update_is_granted_as_its_task(
        self, grid12_pipeline
    ):
        w, fabric = self._victim(grid12_pipeline)
        n = w.tg.ntasks
        ops = w.plan.updates.ops
        # Not a seed: the set-up pushed the seeds, ``_victim`` popped them,
        # and the queue never takes an item twice.
        single = next(o for o, op in enumerate(ops)
                      if len(op[3]) == 1 and w.plan.wait[o])
        multi = next(o for o, op in enumerate(ops) if len(op[3]) > 1)
        w.scheduler.push(n + multi)
        w.scheduler.push(n + single)
        answer = self._answer(w, fabric)
        assert answer.kind == wire.STEAL_GRANT
        assert answer.block == ops[single][3][0]
        # ... which the thief runs as exactly the owner's update.
        assert w.plan.updates.single(answer.block) == ops[single]
        assert list(w.scheduler._fifo) == [n + multi]
