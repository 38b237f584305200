"""Solve requests against the service's resident factors.

The warm path is the whole point: after a clean factor job the pool
workers still hold the factor blocks, so ``FactorService.solve`` ships
*only* the permuted RHS panel — zero factor-plane messages, zero pattern
or matrix bytes. Everything that goes wrong degrades to a typed error or
a bitwise-identical sequential fallback tagged ``degraded_sequential``;
nothing hangs, nothing returns a wrong answer.
"""

import threading
import time

import numpy as np
import pytest

from repro.matrices import grid2d_matrix
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.service import (
    AdmissionRejected,
    FactorService,
    JobFailed,
    UnknownPatternError,
)

SVC_KW = dict(
    nprocs=2, ordering="nd", block_size=8,
    timeout_s=120,
)

#: Hard-kills rank 1 at its first solve task (the worker's crash
#: counter spans factor + solve tasks, and the factor already spent the
#: budget), standing in for a SIGKILL mid-solve.
MID_SOLVE_KILL = FaultPlan(seed=0, crash=(CrashSpec(1, 1, hard=True),))


@pytest.fixture(scope="module")
def grid_A():
    return grid2d_matrix(10).A.tocsc()


def _rhs(n, nrhs=3, seed=42):
    return np.random.default_rng(seed).standard_normal((n, nrhs))


class TestWarmSolve:
    def test_warm_solve_ships_only_rhs(self, grid_A):
        """Zero factor-plane traffic: every message of a warm solve is
        on the solve ledger; the factor ledger stays empty."""
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            b = _rhs(grid_A.shape[0])
            sres = svc.solve(b, pattern_id=jr.pattern_id)
            assert sres.outcome == "clean"
            assert sres.metrics is not None
            workers = sres.metrics.workers
            assert sum(w.messages_sent for w in workers) == 0
            assert sum(w.wire_bytes_sent for w in workers) == 0
            assert sum(w.solve_messages_sent for w in workers) > 0
            assert sum(w.solve_bytes_sent for w in workers) > 0
            assert np.array_equal(sres.x, jr.solve(b))

    def test_vector_rhs_and_shape(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            b = _rhs(grid_A.shape[0], 1)[:, 0]
            sres = svc.solve(b, pattern_id=jr.pattern_id)
            assert sres.x.shape == b.shape
            assert np.array_equal(sres.x, jr.solve(b))


class TestSolvesShareTheQueue:
    def test_solves_racing_a_refactor_see_the_factor_before_them(
        self, grid_A
    ):
        """Two threads solve while a third re-factors the pattern with
        new values: every solve ran on the pool, once, against the factor
        that preceded it in the queue — bitwise."""
        b = _rhs(grid_A.shape[0])
        with FactorService(**SVC_KW) as svc:
            first = svc.factor(grid_A)
            factors = {first.job_id: first}
            pid = first.pattern_id
            solves = {}

            def refactor():
                for i in (1, 2, 3):
                    M = grid_A.copy()
                    M.setdiag(M.diagonal() + i)
                    r = svc.factor(pattern_id=pid, values=M.data)
                    factors[r.job_id] = r

            def solver():
                for _ in range(4):
                    r = svc.solve(b, pattern_id=pid)
                    solves[r.job_id] = r

            threads = [
                threading.Thread(target=refactor),
                threading.Thread(target=solver),
                threading.Thread(target=solver),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            order = [r.job_id for r in svc.metrics.records]
        assert len(solves) == 8 and len(factors) == 4
        assert sorted(order) == sorted([*factors, *solves])
        for jid in order:
            if jid in factors:
                preceding = factors[jid]
                continue
            res = solves[jid]
            assert np.array_equal(res.x, preceding.solve(b)), jid
            assert (res.outcome, res.record.attempts) == ("clean", 1)
            assert res.record.batch_size == 1


class TestTypedErrors:
    def test_full_queue_holds_a_solve_until_there_is_room(self, grid_A):
        """A solve is a queued job: a full queue holds it, as it holds a
        factor, until the dispatcher frees a slot — backpressure, not a
        refusal — and it then answers against the factor queued before
        it."""
        b = _rhs(grid_A.shape[0])
        with FactorService(queue_capacity=1, **SVC_KW) as svc:
            jr = svc.factor(grid_A)
            gate, run_job = threading.Event(), svc._run_job

            def held(queued):
                gate.wait(60)
                run_job(queued)

            svc._run_job = held
            try:
                running = svc.submit(grid_A)  # the dispatcher holds it
                while len(svc.queue):
                    time.sleep(0.001)
                queued = svc.submit(grid_A)  # fills the queue
                with pytest.raises(AdmissionRejected) as exc:
                    svc.submit(grid_A, timeout=0)
                assert exc.value.reason == "queue_full"
                solved = []
                waiter = threading.Thread(target=lambda: solved.append(
                    svc.solve(b, pattern_id=jr.pattern_id)
                ), daemon=True)
                waiter.start()
                waiter.join(0.2)
                assert waiter.is_alive() and len(svc.queue) == 1
            finally:
                gate.set()
            waiter.join(120)
            assert running.result(120).record.status == "ok"
            assert queued.result(120).record.status == "ok"
            (res,) = solved
            assert res.outcome == "clean"
            assert np.array_equal(res.x, queued.result().solve(b))
            assert svc.metrics.rejected == 1

    def test_bad_requests_raise_before_anything_is_queued(
        self, grid_A, caplog
    ):
        """Unknown pattern, no factor, bad rhs shape, a NaN or an Inf in
        the rhs: the calling thread raises; the admission
        queue never sees the job, so nothing is dispatched for it."""
        b = _rhs(grid_A.shape[0])
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            entry = svc.cache.peek(jr.pattern_id)
            seen = svc.metrics.submitted
            svc.queue.put = lambda *a, **k: pytest.fail("queued")
            with pytest.raises(UnknownPatternError):
                svc.solve(b, pattern_id="nope")
            with pytest.raises(JobFailed, match="rhs"):
                svc.solve(b[:-1], pattern_id=jr.pattern_id)
            for bad in (np.nan, np.inf):
                poisoned = b.copy()
                poisoned[3, 1] = bad
                with pytest.raises(JobFailed, match="infs or NaNs"):
                    svc.solve(poisoned, pattern_id=jr.pattern_id)
                with pytest.raises(JobFailed, match="infs or NaNs"):
                    svc.solve(poisoned[:, 1], pattern_id=jr.pattern_id)
            assert not [
                r for r in caplog.records if "crashed" in r.getMessage()
            ]
            factor, entry.last_factor = entry.last_factor, None
            with pytest.raises(JobFailed, match="no completed factor"):
                svc.solve(b, pattern_id=jr.pattern_id)
            entry.last_factor = factor
            assert svc.metrics.submitted == seen
            del svc.queue.put

    def test_complex_or_columnless_rhs_fails_before_queueing(self, grid_A):
        """The service checks ``b`` with the façade's ``permute_rhs``: a
        complex or an ``(n, 0)`` right-hand side is ``JobFailed`` on the
        calling thread, and no job is queued for it."""
        n = grid_A.shape[0]
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            seen = svc.metrics.submitted
            for b, match in ((np.ones(n) + 1j * np.arange(n), "complex"),
                             (np.zeros((n, 0)), rf"shape \({n}, 0\)")):
                with pytest.raises(JobFailed, match=match):
                    svc.solve(b, pattern_id=jr.pattern_id)
            assert svc.metrics.submitted == seen

    def test_unknown_pattern(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)
            with pytest.raises(UnknownPatternError):
                svc.solve(_rhs(grid_A.shape[0]), pattern_id="nope")

    def test_bad_rhs_shape(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            with pytest.raises(JobFailed, match="rhs"):
                svc.solve(
                    np.ones(grid_A.shape[0] + 1),
                    pattern_id=jr.pattern_id,
                )


class TestMidSolveFailure:
    def test_hard_kill_degrades_bitwise(self, grid_A):
        """SIGKILL mid-solve: the pool heals, the service answers from
        the retained factor — tagged, and bitwise-identical to the
        fault-free answer. Never a hang, never a wrong x."""
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            b = _rhs(grid_A.shape[0])
            clean = svc.solve(b, pattern_id=jr.pattern_id)
            assert clean.outcome == "clean"
            hurt = svc.solve(
                b, pattern_id=jr.pattern_id, fault_plan=MID_SOLVE_KILL,
            )
            assert hurt.outcome == "degraded_sequential"
            assert np.array_equal(hurt.x, clean.x)
            assert hurt.record.outcome == "degraded_sequential"

    def test_residency_lost_until_refactor(self, grid_A):
        """After the healed pool restarts, residency is gone: the next
        solve degrades; a re-factor re-arms the warm path."""
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            b = _rhs(grid_A.shape[0])
            ref = svc.solve(b, pattern_id=jr.pattern_id)
            svc.solve(b, pattern_id=jr.pattern_id, fault_plan=MID_SOLVE_KILL)
            after = svc.solve(b, pattern_id=jr.pattern_id)
            assert after.outcome == "degraded_sequential"
            assert np.array_equal(after.x, ref.x)
            svc.factor(pattern_id=jr.pattern_id, values=grid_A.data)
            warm = svc.solve(b, pattern_id=jr.pattern_id)
            assert warm.outcome == "clean"
            assert np.array_equal(warm.x, ref.x)


class TestRecords:
    def test_solve_records_enter_service_metrics(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            jr = svc.factor(grid_A)
            n0 = len(svc.metrics.records)
            sres = svc.solve(_rhs(grid_A.shape[0]),
                             pattern_id=jr.pattern_id)
            recs = svc.metrics.records[n0:]
            assert any(r.job_id == sres.job_id for r in recs)
            assert sres.record.status == "ok"
            assert sres.record.e2e_s >= sres.record.run_s >= 0.0
