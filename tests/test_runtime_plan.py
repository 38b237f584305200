"""The numeric plan at the runtime's seams, without a process: it never
travels with a shipped context, a resident worker compiles it once however
many jobs it runs, and the driver's assembly proves it received every
block exactly once before it hands out a factor."""

import pickle
import queue

import numpy as np
import pytest

from repro.blocks.plan import NumericPlan
from repro.numeric import BlockCholesky
from repro.runtime import (
    LinkFabric,
    PatternContext,
    PoolJob,
    Worker,
    plan_owners,
    wire,
)
from repro.runtime.engine import FanoutError, _assemble
from repro.runtime.worker import WorkerResult


def _context(pipeline, nprocs=2):
    _, sf, _, bs, wm, tg = pipeline
    owners, _ = plan_owners(wm, tg, nprocs, "DW/CY", False)
    A = sf.A.tocsc()
    return PatternContext(
        pattern_id="t", structure=bs, tg=tg, owners=owners,
        indptr=A.indptr, indices=A.indices, shape=tuple(A.shape),
    ), A


class TestPlanStaysHome:
    def test_context_ship_is_unchanged_by_a_built_plan(self, grid12_pipeline):
        ctx, A = _context(grid12_pipeline)
        ctx.structure.__dict__.pop("_numeric_plan", None)
        before = pickle.dumps(ctx)
        BlockCholesky(ctx.structure, A).factor().to_csc()
        assert ctx.structure.__dict__["_numeric_plan"] is not None
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
        does; two factor jobs on it build one plan and one scatter map."""
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
                    assert np.array_equal(w.chol.diag[k], scale * D)
        assert len(compiled) == nprocs
        assert {id(s) for s in compiled} == {
            id(c.structure) for c in contexts
        }
        assert len(mapped) == nprocs


class TestAssembleProvesCoverage:
    @pytest.fixture()
    def gathered(self, grid12_pipeline):
        """A factored problem's blocks as the two ranks would ship them."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY", False)
        chol = BlockCholesky(bs, sf.A).factor()
        frames = {0: [], 1: []}
        for b in range(tg.nblocks):
            I, J = int(tg.block_I[b]), int(tg.block_J[b])
            arr = chol.diag[J] if I == J else chol.below[J][I]
            frames[int(owners[b])].append(
                wire.pack_block(int(owners[b]), b, I, J, arr)
            )
        results = {
            r: WorkerResult(r, None, frames[r]) for r in frames
        }
        return bs, tg, owners, results, chol.to_csc()

    def test_complete_gather_assembles_the_factor(self, gathered):
        bs, tg, owners, results, ref = gathered
        L = _assemble(bs, tg, results, owners).to_csc()
        assert np.array_equal(L.indptr, ref.indptr)
        assert np.array_equal(L.indices, ref.indices)
        assert np.array_equal(L.data, ref.data)

    def test_missing_frame_is_a_typed_error(self, gathered):
        bs, tg, owners, results, _ = gathered
        lost = wire.unpack(results[1].frames.pop(0)).block
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

    def test_duplicated_frame_is_a_typed_error(self, gathered):
        bs, tg, owners, results, _ = gathered
        again = results[0].frames[0]
        b = wire.unpack(again).block
        results[1].frames.append(again)
        with pytest.raises(
            FanoutError,
            match=rf"block {b} .*owned by rank 0, came from ranks \[0, 1\]",
        ):
            _assemble(bs, tg, results, owners)
