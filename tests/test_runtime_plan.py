"""The compiled plans at the runtime's seams, without a process: neither
the numeric plan nor a rank's dispatch plan travels with a shipped
context, a resident worker compiles each once however many jobs it runs
and loses them with the context, and the driver's assembly proves it
received every block exactly once before it hands out a factor."""

import pickle
import queue
import zlib

import numpy as np
import pytest

from repro.blocks.plan import NumericPlan
from repro.fanout.dispatch import DispatchPlan
from repro.numeric import BlockCholesky
from repro.runtime import (
    LinkFabric,
    PatternContext,
    PoolJob,
    Worker,
    plan_owners,
)
from repro.runtime.engine import FanoutError, _assemble
from repro.runtime.pool import _PoolWorker
from repro.runtime.worker import WorkerResult


def _context(pipeline, nprocs=2):
    _, sf, _, bs, wm, tg = pipeline
    owners, _ = plan_owners(wm, tg, nprocs, "DW/CY")
    A = sf.A.tocsc()
    return PatternContext(
        pattern_id="t", structure=bs, tg=tg, owners=owners,
        indptr=A.indptr, indices=A.indices,
    ), A


class TestPlanStaysHome:
    def test_context_ship_is_unchanged_by_a_built_plan(self, grid12_pipeline):
        ctx, A = _context(grid12_pipeline)
        ctx.structure.__dict__.pop("_numeric_plan", None)
        before = pickle.dumps(ctx)
        BlockCholesky(ctx.structure, A).factor().to_csc()
        plan = ctx.structure.__dict__["_numeric_plan"]
        assert plan.slab_flat.dtype == np.intp and plan.panel_rows
        after = pickle.dumps(ctx)
        assert len(after) == len(before)
        assert after == before
        shipped = pickle.loads(after)
        assert "_numeric_plan" not in shipped.structure.__dict__
        # ... and compiles its own on first use.
        assert shipped.structure.numeric_plan() is not ctx.structure._numeric_plan

    def test_two_warm_jobs_compile_once_per_worker(
        self, grid12_pipeline, monkeypatch
    ):
        """Each rank holds its own unpickled context, as a pool worker
        does; two factor jobs on it build one plan and one scatter map,
        and each scatters ``A`` into the diagonal blocks it owns only."""
        ctx, A = _context(grid12_pipeline)
        nprocs = 2
        contexts = [pickle.loads(pickle.dumps(ctx)) for _ in range(nprocs)]
        compiled, mapped = [], []
        init, build = NumericPlan.__init__, NumericPlan.scatter_map

        def counting_init(self, structure):
            compiled.append(structure)
            init(self, structure)

        def counting_map(self, indptr, indices):
            had = self._scatter
            out = build(self, indptr, indices)
            if self._scatter is not had:
                mapped.append(self)
            return out

        monkeypatch.setattr(NumericPlan, "__init__", counting_init)
        monkeypatch.setattr(NumericPlan, "scatter_map", counting_map)
        ref = BlockCholesky(ctx.structure, A)
        compiled.clear(), mapped.clear()
        for seq, scale in enumerate((1.0, 2.0)):
            fabric = LinkFabric(nprocs, queue)
            for rank in range(nprocs):
                job = PoolJob(seq=seq, pattern_id="t", values=scale * A.data)
                w = Worker(
                    rank, contexts[rank], job, None, fabric, queue.Queue()
                )
                w._setup(True)
                for k, D in enumerate(ref.diag):
                    mine = ctx.owners[ctx.tg.diag_block[k]] == rank
                    assert np.array_equal(w.chol.diag[k], scale * D * mine)
        assert len(compiled) == nprocs
        assert {id(s) for s in compiled} == {
            id(c.structure) for c in contexts
        }
        assert len(mapped) == nprocs


@pytest.fixture()
def compiled(monkeypatch):
    """The ``(owners, rank)`` of every ``DispatchPlan`` compiled."""
    seen, init = [], DispatchPlan.__init__

    def counting_init(self, tg, owners, rank):
        seen.append((owners, rank))
        init(self, tg, owners, rank)

    monkeypatch.setattr(DispatchPlan, "__init__", counting_init)
    return seen


class TestDispatchPlanLifetime:
    def test_context_ship_is_unchanged_by_compiled_plans(
        self, grid12_pipeline
    ):
        ctx, _ = _context(grid12_pipeline)
        before = pickle.dumps(ctx)
        plans = [ctx.dispatch_plan(rank) for rank in range(2)]
        assert ctx.__dict__["_dispatch_plans"] == dict(enumerate(plans))
        after = pickle.dumps(ctx)
        assert after == before
        shipped = pickle.loads(after)
        assert "_dispatch_plans" not in shipped.__dict__
        assert shipped.dispatch_plan(0) is not plans[0]

    def test_ranks_sharing_one_context_get_their_own_plan(
        self, grid12_pipeline, compiled
    ):
        """Two ranks driven in one thread over one context object (as
        ``tests/test_runtime_worker.py`` does): one plan each, and a
        second job of the pattern compiles nothing."""
        ctx, A = _context(grid12_pipeline)
        for seq in range(2):
            fabric = LinkFabric(2, queue)
            workers = [
                Worker(rank, ctx, PoolJob(seq=seq, pattern_id="t",
                                          values=A.data),
                       None, fabric, queue.Queue())
                for rank in range(2)
            ]
            for w in workers:
                w._setup(True)
            w0, w1 = workers
            assert w0.plan is ctx.dispatch_plan(0)
            assert w1.plan is ctx.dispatch_plan(1)
            assert w0.plan is not w1.plan
            assert np.array_equal(w0.plan.mine, ~w1.plan.mine)
            assert w0.n_owned + w1.n_owned == ctx.tg.ntasks
        assert [rank for _, rank in compiled] == [0, 1]

    def test_evict_and_a_new_crew_compile_again(
        self, grid12_pipeline, compiled
    ):
        """A resident pool worker compiles on the pattern's first job
        only. Evicting the pattern drops the context and the plan with
        it; what the driver ships next — after an evict, or to the fresh
        processes a heal starts — is a pickle, which carries no plan."""
        ctx, A = _context(grid12_pipeline, nprocs=1)
        results = queue.Queue()

        def run(pool_worker, seq, context=None):
            pool_worker._run_job(PoolJob(
                seq=seq, pattern_id="t", values=A.data, context=context,
            ), 0.0)
            tag, res = results.get_nowait()       # the job's one result
            assert results.empty()
            assert tag == seq and res.metrics.error is None
            assert not res.metrics.aborted

        def shipped():
            return pickle.loads(pickle.dumps(ctx))

        resident = _PoolWorker(0, LinkFabric(1, queue), None, results)
        run(resident, 0, shipped())
        run(resident, 1)
        run(resident, 2)
        assert len(compiled) == 1
        resident._evict(["t"])
        assert "t" not in resident.patterns and "t" not in resident.resident
        run(resident, 3, shipped())
        assert len(compiled) == 2
        healed = _PoolWorker(0, LinkFabric(1, queue), None, results)
        run(healed, 4, shipped())
        run(healed, 5)
        assert len(compiled) == 3


class TestSolvePlanLifetime:
    def test_a_new_factor_worker_reads_the_solve_plan_off_the_context(
        self, grid12_pipeline, monkeypatch
    ):
        """Every factor job builds a new ``Worker``; the ``SolvePlan`` is
        compiled by the rank's first job with an rhs, then kept by the
        context — per rank, and never in its pickle."""
        from repro.runtime.solve_plan import SolvePlan

        built, init = [], SolvePlan.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(SolvePlan, "__init__", counting_init)
        ctx, A = _context(grid12_pipeline)
        before = pickle.dumps(ctx)
        rhs = np.ones((A.shape[0], 1))
        workers = []
        for seq in range(2):
            fabric = LinkFabric(2, queue)
            for rank in range(2):
                job = PoolJob(seq=seq, pattern_id="t", values=A.data, rhs=rhs)
                w = Worker(rank, ctx, job, None, fabric, queue.Queue())
                w._setup(True)
                workers.append(w)
        assert len(built) == 2
        first, second = workers[:2], workers[2:]
        for w, again in zip(first, second):
            assert again.splan is w.splan
        assert first[0].splan is not first[1].splan
        assert pickle.dumps(ctx) == before
        assert "_solve_plans" not in pickle.loads(before).__dict__


class TestAssembleProvesCoverage:
    @pytest.fixture()
    def gathered(self, grid12_pipeline):
        """A factored problem's blocks as the two ranks of an inline job
        would ship them, and ``ship(rank, blocks)``, the result of a rank
        that reports ``blocks``: each one's id and CRC, and its words."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        chol = BlockCholesky(bs, sf.A).factor()

        def ship(rank, blocks):
            arrs = [chol.diag[J] if I == J else chol.below[J][I]
                    for I, J in zip(tg.block_I[blocks], tg.block_J[blocks])]
            return WorkerResult(
                rank, None,
                held=(np.asarray(blocks, dtype=np.int32), np.array(
                    [zlib.crc32(a) for a in arrs], dtype=np.uint32)),
                words=np.concatenate([a.ravel() for a in arrs]),
            )

        results = {r: ship(r, np.flatnonzero(owners == r)) for r in (0, 1)}
        return bs, tg, owners, results, chol.to_csc(), ship

    def test_complete_gather_assembles_the_factor(self, gathered):
        bs, tg, owners, results, ref, _ = gathered
        L = _assemble(bs, tg, results, owners)[0].to_csc()
        assert np.array_equal(L.indptr, ref.indptr)
        assert np.array_equal(L.indices, ref.indices)
        assert np.array_equal(L.data, ref.data)

    def test_missing_frame_is_a_typed_error(self, gathered):
        """A rank that reports one owned block short."""
        bs, tg, owners, results, _, ship = gathered
        lost, *kept = results[1].held[0].tolist()
        results[1] = ship(1, kept)
        I, J = int(tg.block_I[lost]), int(tg.block_J[lost])
        with pytest.raises(FanoutError) as err:
            _assemble(bs, tg, results, owners)
        assert str(err.value) == (
            f"factor gather: 1/{tg.nblocks} blocks did not arrive exactly "
            f"once; block {lost} ({I},{J}), owned by rank 1, came from "
            "ranks []"
        )
        assert err.value.results is results
        # Without an owner plan the error still names the block.
        with pytest.raises(
            FanoutError, match=rf"block {lost} \({I},{J}\) came from ranks \[\]"
        ):
            _assemble(bs, tg, results)

    @pytest.mark.parametrize("damage", ["bit flip", "truncation"])
    def test_bad_frame_is_a_typed_error(self, gathered, damage):
        """Shipped words that are not what the rank published — one bit
        flipped, one word short — name the rank (and a flipped block) in
        the ``FanoutError`` every other gather failure raises."""
        bs, tg, owners, results, _, _ = gathered
        words = results[1].words
        if damage == "bit flip":
            # A word of rank 1's third block: past its first two blocks.
            first = results[1].held[0][:3]
            _, size = bs.numeric_plan().block_spans(tg.block_I[first],
                                                    tg.block_J[first])
            words.view(np.uint64)[size[:2].sum()] ^= 1 << 40
            b = int(first[2])
            match = (rf"^factor gather: block {b} \({tg.block_I[b]},"
                     rf"{tg.block_J[b]}\), owned by rank 1, does not hold "
                     r"the bytes rank 1 published \(CRC mismatch\)$")
        else:
            results[1].words = words[:-1]
            match = (rf"^factor gather: rank 1 shipped {words.size - 1} "
                     rf"words for {words.size} in its blocks$")
        with pytest.raises(FanoutError, match=match) as err:
            _assemble(bs, tg, results, owners)
        assert err.value.results is results

    def test_duplicated_frame_is_a_typed_error(self, gathered):
        """A block reported by its owner and by another rank too."""
        bs, tg, owners, results, _, ship = gathered
        b = int(results[0].held[0][0])
        results[1] = ship(1, [*results[1].held[0].tolist(), b])
        with pytest.raises(
            FanoutError,
            match=rf"block {b} .*owned by rank 0, came from ranks \[0, 1\]",
        ):
            _assemble(bs, tg, results, owners)
