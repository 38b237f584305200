"""The persistent worker pool: one job in flight on a resident crew,
values-only warm dispatch, bitwise re-factorization on both transports,
straggler frames, failure containment, and restart semantics."""

import multiprocessing as mp
import os
import platform
import sys

import numpy as np
import pytest

from repro.analysis.comm_volume import communication_volume
from repro.analysis.trace_replay import validate_trace
from repro.numeric import BlockCholesky
from repro.ordering import permute_spd
from repro.runtime import (
    PatternContext,
    PoolJob,
    WorkerPool,
    plan_owners,
    run_mp_fanout,
    shm_available,
    wire,
)
from repro.runtime import pool as pool_module
from repro.runtime.arena import BlockArena
from repro.runtime.engine import FanoutError, _assemble, outcome_result
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.util import heap


@pytest.fixture(scope="module")
def pool_problem(grid12_pipeline):
    """Owner plan + permuted matrices (two value sets, one pattern)."""
    _, sf, _, bs, wm, tg = grid12_pipeline
    owners, _ = plan_owners(wm, tg, 2, "DW/CY")
    A_perm = sf.A.tocsc()
    A2 = sf.A.copy().tocsc()
    A2.setdiag(A2.diagonal() + 1.5)
    return {
        "structure": bs,
        "tg": tg,
        "owners": owners,
        "A_perm": A_perm,
        "A2_perm": A2,
        "L1": BlockCholesky(bs, A_perm).factor().to_csc(),
        "L2": BlockCholesky(bs, A2).factor().to_csc(),
    }


def _context(p, pattern_id, arena_name=None):
    A = p["A_perm"]
    return PatternContext(
        pattern_id=pattern_id,
        structure=p["structure"],
        tg=p["tg"],
        owners=p["owners"],
        indptr=A.indptr,
        indices=A.indices,
        arena_name=arena_name,
    )


def _factor_of(p, outcome, arena=None):
    """The job's factor: from its shipped words, or (shm) out of
    ``arena`` — which holds the blocks of the job that ran last."""
    assert outcome.ok, (outcome.error, outcome.aborted)
    factor, _ = _assemble(
        p["structure"], p["tg"], outcome.results, arena=arena
    )
    return factor.to_csc()


def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


class TestInlinePool:
    def test_batch_with_warm_jobs_bitwise(self, pool_problem):
        """Same pattern, new values: every pooled job — cold and warm —
        must reproduce the sequential factor bitwise (inline)."""
        p = pool_problem
        with WorkerPool(nprocs=2) as pool:
            out = [pool.run(job, timeout_s=120) for job in (
                PoolJob(seq=0, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                PoolJob(seq=1, pattern_id="g", values=p["A2_perm"].data),
                PoolJob(seq=2, pattern_id="g", values=p["A_perm"].data),
            )]
            assert _bitwise(_factor_of(p, out[0]), p["L1"])
            assert _bitwise(_factor_of(p, out[1]), p["L2"])
            assert _bitwise(_factor_of(p, out[2]), p["L1"])

    def test_context_survives_batches(self, pool_problem):
        """A later job needs no context re-ship for a seen pattern."""
        p = pool_problem
        with WorkerPool(nprocs=2) as pool:
            out = pool.run(
                PoolJob(seq=0, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                timeout_s=120,
            )
            assert out.ok
            assert "g" in pool.seen_patterns
            out = pool.run(
                PoolJob(seq=1, pattern_id="g", values=p["A2_perm"].data),
                timeout_s=120,
            )
            assert _bitwise(_factor_of(p, out), p["L2"])

    def test_missing_context_is_typed_error(self, pool_problem):
        p = pool_problem
        with WorkerPool(nprocs=2) as pool:
            out = pool.run(
                PoolJob(seq=0, pattern_id="nope", values=p["A_perm"].data),
                timeout_s=60,
            )
            assert not out.ok
            assert "protocol breach" in out.error

    def test_per_job_metrics_isolated(self, pool_problem):
        """Each job's metrics cover only that job's traffic."""
        p = pool_problem
        with WorkerPool(nprocs=2) as pool:
            out = [pool.run(job, timeout_s=120) for job in (
                PoolJob(seq=0, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                PoolJob(seq=1, pattern_id="g", values=p["A_perm"].data),
            )]
        m0 = sum(r.metrics.messages_sent for r in out[0].results.values())
        m1 = sum(r.metrics.messages_sent for r in out[1].results.values())
        assert m0 == m1  # identical jobs, identical per-job counters
        for out_i in out:
            tasks = sum(
                r.metrics.tasks_executed for r in out_i.results.values()
            )
            assert tasks == p["tg"].ntasks


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
class TestShmPool:
    def test_same_arena_back_to_back_bitwise(self, pool_problem):
        """Jobs run one after the other, so same-arena jobs never share
        slots and stay bitwise-correct. The arena holds the job that ran
        last: each factor is copied out before the next job is
        dispatched, and the last of consecutive jobs is the one it
        yields."""
        p = pool_problem
        arena = BlockArena.create(p["tg"])
        try:
            with WorkerPool(nprocs=2) as pool:
                first = pool.run(
                    PoolJob(seq=0, pattern_id="g",
                            values=p["A_perm"].data,
                            context=_context(p, "g", arena.name)),
                    timeout_s=120,
                )
                assert _bitwise(_factor_of(p, first, arena), p["L1"])
                out = [pool.run(job, timeout_s=120) for job in (
                    PoolJob(seq=1, pattern_id="g",
                            values=p["A_perm"].data),
                    PoolJob(seq=2, pattern_id="g",
                            values=p["A2_perm"].data),
                )]
                assert out[0].ok
                assert all(r.words is None for r in out[0].results.values())
                assert _bitwise(_factor_of(p, out[1], arena), p["L2"])
        finally:
            arena.destroy()

    def test_shm_wire_bytes_stay_descriptor_sized(self, pool_problem):
        """Pool jobs on shm ship 64-byte descriptors peer-to-peer (and
        no block at all to the driver)."""
        p = pool_problem
        arena = BlockArena.create(p["tg"])
        try:
            with WorkerPool(nprocs=2) as pool:
                out = pool.run(
                    PoolJob(seq=0, pattern_id="g",
                            values=p["A_perm"].data,
                            context=_context(p, "g", arena.name)),
                    timeout_s=120,
                )
                assert out.ok
                w = out.results
                wire = sum(r.metrics.wire_bytes_sent for r in w.values())
                logical = sum(r.metrics.bytes_sent for r in w.values())
                assert 0 < wire < logical
        finally:
            arena.destroy()


class TestStragglerFrames:
    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_frames_of_a_finished_job_are_dropped(
        self, pool_problem, transport
    ):
        """Frames tagged with an older seq that a rank reads mid-job —
        an ABORT and a real block frame of job 0 — are dropped: job 1
        runs clean, bitwise, with exactly the predicted traffic."""
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        p = pool_problem
        arena = BlockArena.create(p["tg"]) if transport == "shm" else None
        try:
            with WorkerPool(nprocs=2) as pool:
                first = pool.run(PoolJob(
                    seq=0, pattern_id="g", values=p["A_perm"].data,
                    context=_context(
                        p, "g", None if arena is None else arena.name
                    ),
                ), timeout_s=120)
                assert first.ok, first.error
                # A block frame as rank 0 fanned it out in job 0: the
                # block itself inline, its slot descriptor on shm.
                b = int(first.results[0].held[0][0])
                if arena is None:
                    I, J = int(p["tg"].block_I[b]), int(p["tg"].block_J[b])
                    factor, _ = _assemble(p["structure"], p["tg"],
                                          first.results)
                    stale = wire.pack_block(
                        0, b, I, J,
                        factor.diag[J] if I == J else factor.below[J][I],
                    )
                else:
                    stale = arena.pack_ref(0, b)
                for inbox in pool._fabric.inboxes:
                    inbox.put((0, stale))
                pool.abort_job(0)
                out = pool.run(PoolJob(
                    seq=1, pattern_id="g", values=p["A2_perm"].data,
                ), timeout_s=120)
            L = _factor_of(p, out, arena)
        finally:
            if arena is not None:
                arena.destroy()
        assert _bitwise(L, p["L2"])
        predicted = communication_volume(p["tg"], p["owners"])
        sent = [r.metrics for r in out.results.values()]
        assert sum(m.messages_sent for m in sent) == predicted.messages
        assert sum(m.bytes_sent for m in sent) == predicted.bytes
        assert sum(m.messages_received for m in sent) == predicted.messages


class TestPoolLifecycle:
    def test_restart_clears_seen_patterns(self, pool_problem):
        p = pool_problem
        pool = WorkerPool(nprocs=2).start()
        try:
            pool.run(
                PoolJob(seq=0, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                timeout_s=120,
            )
            assert "g" in pool.seen_patterns
            gen = pool.generation
            pool.restart()
            assert pool.generation == gen + 1
            assert not pool.seen_patterns
            # context must be re-shipped after restart
            out = pool.run(
                PoolJob(seq=1, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                timeout_s=120,
            )
            assert _bitwise(_factor_of(p, out), p["L1"])
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        """And final: nothing brings a crew back after close()."""
        pool = WorkerPool(nprocs=2).start()
        pool.close()
        pool.close()
        assert not pool.running
        for revive in (pool.start, pool.restart,
                       lambda: pool.run(PoolJob(seq=0, pattern_id="g",
                                                values=np.zeros(1)))):
            with pytest.raises(FanoutError, match="closed"):
                revive()
        assert not pool.running and mp.active_children() == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="mallopt is glibc's")
    def test_start_pins_the_malloc_thresholds(self, monkeypatch):
        """A crew's driver re-allocates the factor's arrays every job, so
        starting a crew pins glibc's malloc thresholds (repro.util.heap)
        before it forks."""
        calls = []
        monkeypatch.setattr(pool_module, "pin_malloc_thresholds",
                            lambda: calls.append(mp.active_children()))
        with WorkerPool(nprocs=1):
            assert calls == [[]]
        assert heap.pin_malloc_thresholds()

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or not hasattr(os, "sched_setaffinity"),
                        reason="CPU affinity is pinned on Linux only")
    @pytest.mark.parametrize("cpus", [None, 1], ids=["inherited", "one"])
    def test_each_rank_runs_on_one_cpu_of_its_mask(self, pool_problem, cpus):
        """Rank r pins itself to the (r mod k)-th of the k CPUs it
        inherits: two distinct one-CPU masks on two CPUs or more, and
        every rank on the one CPU of a one-CPU mask (``taskset -c 0``)."""
        p, saved = pool_problem, os.sched_getaffinity(0)
        allowed = sorted(saved)[:cpus]
        if len(allowed) < 2 and cpus is None:
            pytest.skip("one CPU allowed")
        os.sched_setaffinity(0, allowed)  # the forking thread's mask
        try:
            with WorkerPool(nprocs=2) as pool:
                # A job answered: every rank is past its pinning.
                assert pool.run(PoolJob(
                    seq=0, pattern_id="g", values=p["A_perm"].data,
                    context=_context(p, "g"),
                ), timeout_s=120).ok
                masks = [os.sched_getaffinity(w.pid) for w in pool._procs]
        finally:
            os.sched_setaffinity(0, saved)
        assert masks == [{allowed[r % len(allowed)]} for r in range(2)]
        assert (masks[0] != masks[1]) == (len(allowed) > 1)

    def test_evict_forces_reship(self, pool_problem):
        p = pool_problem
        with WorkerPool(nprocs=2) as pool:
            pool.run(
                PoolJob(seq=0, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                timeout_s=120,
            )
            pool.evict(["g"])
            assert "g" not in pool.seen_patterns
            out = pool.run(
                PoolJob(seq=1, pattern_id="g", values=p["A2_perm"].data,
                        context=_context(p, "g")),
                timeout_s=120,
            )
            assert _bitwise(_factor_of(p, out), p["L2"])


class TestWarmEqualsCold:
    """The service acceptance bar: a warm re-factorization (cached
    pattern, new values) is bitwise identical to a cold factor() of the
    same values, on both transports."""

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_refactorization_bitwise(self, grid12_pipeline, transport):
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        problem, sf, _, bs, wm, tg = grid12_pipeline
        owners, _ = plan_owners(wm, tg, 2, "DW/CY")
        # "new values": the original matrix with a shifted diagonal,
        # permuted exactly as the cold path permutes it.
        A_new = problem.A.tocsc().copy()
        A_new.setdiag(A_new.diagonal() + 0.75)
        A_new_perm = permute_spd(A_new, sf.ordering)
        cold = BlockCholesky(bs, A_new_perm).factor().to_csc()

        arena = BlockArena.create(tg) if transport == "shm" else None
        A_perm = sf.A.tocsc()
        ctx = PatternContext(
            pattern_id="warm",
            structure=bs, tg=tg, owners=owners,
            indptr=A_perm.indptr, indices=A_perm.indices,
            arena_name=None if arena is None else arena.name,
        )
        try:
            with WorkerPool(nprocs=2) as pool:
                out = [pool.run(job, timeout_s=120) for job in (
                    PoolJob(seq=0, pattern_id="warm",
                            values=A_perm.data, context=ctx),
                    PoolJob(seq=1, pattern_id="warm",
                            values=A_new_perm.data),
                )]
                assert out[1].ok, out[1].error
                warm = _assemble(
                    bs, tg, out[1].results, arena=arena
                )[0].to_csc()
        finally:
            if arena is not None:
                arena.destroy()
        assert np.array_equal(warm.indptr, cold.indptr)
        assert np.array_equal(warm.indices, cold.indices)
        assert np.array_equal(warm.data, cold.data)


class TestBrokenBatch:
    def test_run_reports_and_leaves_healing_to_the_caller(
        self, pool_problem
    ):
        """A hard-killed rank: the job comes back failed, the pool says
        why and who, and no process is started behind the caller's back
        — the crew changes only when the caller restarts it, at its own
        width."""
        p = pool_problem
        kill = FaultPlan(seed=0, crash=(CrashSpec(1, 1, hard=True),))
        pool = WorkerPool(nprocs=2).start()
        try:
            crew = list(pool._procs)
            out = pool.run(
                PoolJob(seq=0, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g"), fault_plan=kill),
                timeout_s=60,
            )
            assert not out.ok
            assert "died" in pool.last_error
            assert out.failed_ranks == [1]
            assert pool.dead_ranks() == [1]
            assert pool._procs == crew
            assert (pool.generation, pool.nprocs) == (1, 2)

            pool.restart()
            assert (pool.generation, pool.nprocs) == (2, 2)
            assert pool.alive and not pool.seen_patterns
            out = pool.run(
                PoolJob(seq=2, pattern_id="g", values=p["A_perm"].data,
                        context=_context(p, "g")),
                timeout_s=60,
            )
            assert pool.last_error is None
            assert _bitwise(_factor_of(p, out), p["L1"])
        finally:
            pool.close()


class TestOneShotIsAOneJobPool:
    """``run_mp_fanout`` is a pool that lives for one job: the same job
    through a caller-held pool is the same run."""

    @pytest.mark.parametrize("with_rhs", [False, True])
    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_same_factor_traffic_and_trace(
        self, pool_problem, transport, with_rhs
    ):
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        p = pool_problem
        bs, tg, owners, A = p["structure"], p["tg"], p["owners"], p["A_perm"]
        rhs = None
        if with_rhs:
            rhs = np.random.default_rng(5).standard_normal((A.shape[0], 2))
        one = run_mp_fanout(
            bs, A, tg, owners, 2, mapping="DW/CY", trace=True,
            transport=transport, rhs=rhs,
        )

        arena = BlockArena.create(tg) if transport == "shm" else None
        try:
            with WorkerPool(nprocs=2) as pool:
                out = pool.run(PoolJob(
                    seq=0, pattern_id="g", values=A.data,
                    context=_context(
                        p, "g", None if arena is None else arena.name
                    ),
                    trace_capacity=1 << 16, rhs=rhs,
                ), timeout_s=120)
            assert out.ok, out.error
            factor, solution, metrics, trace = outcome_result(
                out, bs, tg, True, rhs, mapping="DW/CY", arena=arena,
            )
        finally:
            if arena is not None:
                arena.destroy()

        assert _bitwise(factor.to_csc(), one.to_csc())
        assert _bitwise(factor.to_csc(), p["L1"])
        if with_rhs:
            assert np.array_equal(solution, one.solution)
        for total in ("messages_total", "bytes_total", "wire_bytes_total"):
            assert getattr(metrics, total) == getattr(one.metrics, total)
        for run_trace, run_metrics in (
            (one.trace, one.metrics), (trace, metrics)
        ):
            validate_trace(
                run_trace, metrics=run_metrics, tg=tg, owners=owners,
                strict=True,
            )
