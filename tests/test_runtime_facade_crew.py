"""The crew a ``SparseCholesky(backend="mp")`` instance holds.

The instance plans its pattern and starts a :class:`WorkerPool` at its
first ``"mp"`` job and keeps both, so a re-factor is a warm values-only
job. Every way the instance can end — ``close()``, a ``with`` block,
garbage collection, an interpreter that exits without closing — stops the
workers and unlinks the arena. (The ``test_runtime_`` prefix puts this
module under the conftest guard for leaked processes and segments.)
"""

import gc
import glob
import json
import multiprocessing as mp
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import communication_volume
from repro.mapping import best_grid
from repro.matrices import random_spd_sparse
from repro.runtime import WorkerPool, shm_available
from repro.solver import SparseCholesky

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _segments():
    return set(glob.glob("/dev/shm/psm_*"))


def _released():
    for p in mp.active_children():
        p.join(timeout=5)
    return mp.active_children() == []


def _chol(A, **kw):
    return SparseCholesky(A, ordering="nd", block_size=8, backend="mp",
                          nprocs=2, **kw)


class TestOneCrewPerInstance:
    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_repeat_factor_is_a_warm_job_on_one_crew(
        self, grid12_pipeline, transport, monkeypatch
    ):
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        shipped = []
        run = WorkerPool.run

        def spy(pool, job, timeout_s=300.0):
            shipped.append(job.context is not None)
            return run(pool, job, timeout_s)

        monkeypatch.setattr(WorkerPool, "run", spy)
        with _chol(grid12_pipeline[0].A, transport=transport) as chol:
            Ls = []
            for _ in range(2):
                met = chol.factor().runtime_metrics
                plan, pool, _, _ = chol._crew
                predicted = communication_volume(chol.taskgraph, plan.owners)
                assert (met.messages_total, met.bytes_total) == (
                    predicted.messages, predicted.bytes
                )
                assert met.transport == transport
                Ls.append(chol.L)
            assert np.array_equal(Ls[0].data, Ls[1].data)
            assert shipped == [True, False]  # the context shipped once
            assert pool.generation == 1
            assert pool.seen_patterns == {plan.pattern_id}
            assert (plan.arena is None) == (transport == "inline")
        assert plan.arena is None and not pool.running

    def test_solve_then_factor_share_the_crew(self, grid12_pipeline):
        """An unfactored solve() starts the crew a later factor() reuses;
        its solution is the sequential substitution's on the same factor,
        bit for bit."""
        A = grid12_pipeline[0].A
        b = np.random.default_rng(3).standard_normal((A.shape[0], 2))
        with _chol(A) as chol:
            x = chol.solve(b)
            assert np.array_equal(x, chol._base_solve(b))
            pool = chol._crew[1]
            chol.factor()
            assert chol._crew[1] is pool and pool.generation == 1


class TestEveryCrewShape:
    """A crew may be wider than its owner set: a rank that owns no block
    sets up, runs and gathers an empty share, so the job is clean."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @example(n=1, nprocs=2, block_size=8, density=0.0)
    @example(n=10, nprocs=8, block_size=8, density=0.0)
    @given(n=st.integers(1, 40), nprocs=st.integers(1, 8),
           block_size=st.sampled_from((1, 3, 8)),
           density=st.sampled_from((0.0, 0.1)))
    def test_every_rank_sets_up_even_without_blocks(
        self, n, nprocs, block_size, density
    ):
        A = random_spd_sparse(n, density, seed=n)
        ref = SparseCholesky(A, block_size=block_size).factor().L
        with SparseCholesky(A, backend="mp", nprocs=nprocs,
                            block_size=block_size) as chol:
            L = chol.factor().L
            report = chol.failure_report
        assert (report.outcome, report.attempts) == ("clean", [])
        if best_grid(nprocs).Pr == 1:  # whole columns, as sequential
            assert np.array_equal(L.indptr, ref.indptr)
            assert np.array_equal(L.indices, ref.indices)
            assert np.array_equal(L.data, ref.data)
        else:
            assert abs(L - ref).max() <= 1e-12 * abs(ref).max()


class TestRelease:
    def test_with_block(self, grid12_pipeline):
        before = _segments()
        with _chol(grid12_pipeline[0].A) as chol:
            chol.factor()
            assert mp.active_children()
        assert _released() and _segments() == before

    def test_close_twice(self, grid12_pipeline):
        before = _segments()
        chol = _chol(grid12_pipeline[0].A)
        chol.factor()
        chol.close()
        chol.close()
        assert _released() and _segments() == before
        chol.factor()  # a closed instance starts a new crew on demand
        assert chol._crew[1].generation == 1
        chol.close()
        assert _released() and _segments() == before

    def test_garbage_collection(self, grid12_pipeline):
        before = _segments()
        chol = _chol(grid12_pipeline[0].A)
        chol.factor()
        del chol
        gc.collect()
        assert _released() and _segments() == before

    def test_interpreter_exit_without_close(self, tmp_path):
        """What a script that never closes its instance leaves behind —
        nothing: the finalizer runs at interpreter exit."""
        before = _segments()
        script = tmp_path / "leave.py"
        script.write_text(
            "import json\n"
            "from repro.matrices import grid2d_matrix\n"
            "from repro.solver import SparseCholesky\n"
            "chol = SparseCholesky(grid2d_matrix(12).A, ordering='nd',\n"
            "                      block_size=8, backend='mp', nprocs=2)\n"
            "chol.factor()\n"
            "plan, pool, _, _ = chol._crew\n"
            "print(json.dumps([[p.pid for p in pool._procs],\n"
            "                  getattr(plan.arena, 'name', None)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        pids, arena = json.loads(out.stdout.strip().splitlines()[-1])
        assert len(pids) == 2
        # Not left to multiprocessing's resource tracker to clean up.
        assert "leaked" not in out.stderr
        deadline = time.monotonic() + 5
        while any(os.path.exists(f"/proc/{pid}") for pid in pids):
            assert time.monotonic() < deadline, f"workers outlived: {pids}"
            time.sleep(0.05)
        if arena is not None:
            assert not os.path.exists(f"/dev/shm/{arena}")
        assert _segments() == before


class TestNothingSpawned:
    @pytest.mark.parametrize("knobs", [
        dict(nprocs=0), dict(transport="bogus"), dict(mapping="XX/YY"),
    ])
    def test_bad_knobs(self, grid12_pipeline, knobs):
        with pytest.raises(ValueError):
            SparseCholesky(grid12_pipeline[0].A, backend="mp", **knobs)
        assert mp.active_children() == []

    def test_analysis_only(self, grid12_pipeline):
        before = _segments()
        chol = _chol(grid12_pipeline[0].A)
        plan = chol.plan_parallel(P=4)
        assert plan.P == 4 and chol.compare_mappings(4)
        assert chol._crew is None
        assert mp.active_children() == [] and _segments() == before
        chol.close()  # nothing to release
