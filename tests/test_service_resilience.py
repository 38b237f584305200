"""The self-healing service: worker death mid-batch (hard and soft, on
both transports), the caller's timeout, one failure policy per job, one
run per submit, client reconnect and graceful drain.

The acceptance bar throughout: every submitted job either completes —
with its survival path tagged in the record — or raises a typed
:class:`~repro.service.jobs.ServiceError`, and a caller's ``timeout``
bounds its wait; completed
factors are bitwise identical to the fault-free run; nothing leaks shm.
"""

import glob
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.matrices import grid2d_matrix
from repro.numeric.solve import block_solve_permuted, permute_rhs
from repro.runtime import shm_available
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.service import (
    FactorService,
    JobFailed,
    ServiceClient,
    ServiceClosed,
    ServiceServer,
    ServiceUnavailable,
)
from repro.service.jobs import FactorJob, JobHandle
from repro.solver import SparseCholesky

SVC_KW = dict(
    nprocs=2, ordering="nd", block_size=8,
    timeout_s=120,
)

#: A crash plan that hard-kills rank 1 after one task — the SIGKILL /
#: segfault stand-in (``os._exit`` without reporting or cleanup).
HARD_KILL = FaultPlan(seed=0, crash=(CrashSpec(1, 1, hard=True),))
SOFT_CRASH = FaultPlan(seed=0, crash=(CrashSpec(1, 1),))


@pytest.fixture(scope="module")
def grid_A():
    return grid2d_matrix(10).A.tocsc()


def _shifted(A, shift):
    M = A.copy()
    M.setdiag(M.diagonal() + shift)
    return M.tocsc()


def _cold_L(A):
    return SparseCholesky(A, ordering="nd", block_size=8).factor().L


def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestPoolSelfHealing:
    """Worker death mid-job: the pool restarts at its configured width,
    the affected job re-runs (the same owners, re-shipped contexts), and
    the recovered factors stay bitwise identical — on both transports."""

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_hard_kill_mid_batch_recovers_bitwise(self, grid_A, transport):
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        before = _shm_segments()
        mats = [_shifted(grid_A, 0.25 * (i + 1)) for i in range(4)]
        # The kill rides the last job of the burst.
        with FactorService(transport=transport, **SVC_KW) as svc:
            handles = [
                svc.submit(M, fault_plan=HARD_KILL if i == 3 else None)
                for i, M in enumerate(mats)
            ]
            results = [h.result(120) for h in handles]
            # every job completed despite the mid-burst worker death
            for M, r in zip(mats, results):
                assert _bitwise(r.L, _cold_L(M))
            assert results[-1].record.outcome == "recovered"
            assert svc.metrics.pool_restarts == 1
            # a new crew of the configured width, and health is fine
            assert (svc.pool.nprocs, svc.pool.generation) == (svc.nprocs, 2)
            assert svc.health()["status"] == "ok"
        assert _shm_segments() == before

    def test_soft_crash_retries_without_restart(self, grid_A):
        """A raising (soft-crash) worker ABORTs only its job; the pool
        survives and the retried job recovers bitwise."""
        M = _shifted(grid_A, 0.5)
        with FactorService(**SVC_KW) as svc:
            r = svc.factor(M, fault_plan=SOFT_CRASH)
            assert _bitwise(r.L, _cold_L(M))
            assert r.record.outcome == "recovered"
            assert r.record.attempts == 2
            assert svc.metrics.pool_restarts == 0
            assert svc.pool.generation == 1
            assert svc.health()["status"] == "ok"

    def test_sigkill_between_batches_heals(self, grid_A):
        """A real SIGKILL while the pool is idle: the next batch detects
        the dead rank, restarts the crew, and completes on all of it."""
        with FactorService(**SVC_KW) as svc:
            r1 = svc.factor(grid_A)
            victim = svc.pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            assert svc.pool.dead_ranks() == [1]
            M = _shifted(grid_A, 0.75)
            r2 = svc.factor(M)
            assert _bitwise(r1.L, _cold_L(grid_A))
            assert _bitwise(r2.L, _cold_L(M))
            assert r2.record.outcome == "recovered"
            assert (svc.pool.nprocs, r2.metrics.nprocs) == (2, 2)
            assert svc.health()["pool"]["alive"]


class TestCallerTimeout:
    def test_result_wait_bounded_by_timeout(self, grid_A):
        """A caller never hangs: ``result(timeout)`` raises
        ``TimeoutError`` on time while a slowed job runs on, and the job
        then completes bitwise."""
        M = _shifted(grid_A, 2.0)
        slow = FaultPlan(seed=0, slow={0: 0.01, 1: 0.01})  # ~1 s of sleep
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)  # warm the pattern
            handle = svc.submit(M, fault_plan=slow)
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.2)
            assert 0.2 <= time.monotonic() - t0 < 1.0
            assert not handle.done()
            assert _bitwise(handle.result(120).L, _cold_L(M))


class TestOneFailurePolicy:
    """A job's failure handling is the recovery loop's alone: a crew that
    breaks on every attempt costs that job its ``max_restarts + 1``
    attempts and the sequential fallback, and nothing after it."""

    def test_the_next_requests_are_served_as_usual(self, grid_A):
        every = FaultPlan(
            crash=(CrashSpec(1, 1, hard=True, every_attempt=True),)
        )
        with FactorService(max_restarts=2, **SVC_KW) as svc:
            r = svc.factor(grid_A, fault_plan=every)
            assert (r.record.outcome, r.record.attempts) == (
                "degraded_sequential", 3
            )
            assert svc.metrics.pool_restarts == 3
            assert svc.health()["status"] == "ok"
            # The retained factor answers the solve, bitwise.
            entry = svc.cache.peek(r.pattern_id)
            b = np.linspace(1.0, 2.0, grid_A.shape[0])
            pb, _ = permute_rhs(b, grid_A.shape[0], entry.perm)
            x = np.empty_like(b)
            x[entry.perm] = block_solve_permuted(
                entry.last_factor, pb.reshape(-1, 1)
            )[:, 0]
            s = svc.solve(b, r.pattern_id)
            assert s.outcome == "degraded_sequential"
            assert np.array_equal(s.x, x)
            # A fault-free job runs on the crew again.
            M = _shifted(grid_A, 1.0)
            r2 = svc.factor(M)
            assert (r2.record.outcome, r2.record.attempts) == ("clean", 1)
            assert _bitwise(r2.L, _cold_L(M))


class TestDedup:
    """There is no dedup: the service names every job, and each submit
    runs its job once. A resubmission runs again, bitwise the same."""

    def test_a_resubmission_runs_again_bitwise(self, grid_A):
        b = np.ones(grid_A.shape[0])
        with FactorService(**SVC_KW) as svc:
            r1 = svc.factor(grid_A)
            r2 = svc.factor(grid_A)
            assert r1.job_id != r2.job_id and r2 is not r1
            assert _bitwise(r1.L, r2.L) and _bitwise(r2.L, _cold_L(grid_A))
            s1 = svc.solve(b, r1.pattern_id)
            s2 = svc.solve(b, r1.pattern_id)
            assert s1.job_id != s2.job_id
            assert np.array_equal(s1.x, s2.x)
            jobs = svc.stats()["service"]["jobs"]
            assert (jobs["submitted"], jobs["completed"]) == (4, 4)
            assert [r.job_id for r in svc.metrics.records] == [
                r1.job_id, r2.job_id, s1.job_id, s2.job_id,
            ]

    def test_failed_jobs_are_not_cached(self, grid_A):
        """A failed values-only job does not poison the next factor of
        the same matrix, which stays bitwise."""
        with FactorService(**SVC_KW) as svc:
            r = svc.factor(grid_A)
            with pytest.raises(JobFailed, match="values array"):
                svc.factor(pattern_id=r.pattern_id, values=grid_A.data[:-3])
            r2 = svc.factor(grid_A)
            assert _bitwise(r2.L, _cold_L(grid_A))
            assert r2.record.outcome == "clean" and r2.cache == "hit"
            jobs = svc.stats()["service"]["jobs"]
            assert (jobs["submitted"], jobs["completed"], jobs["failed"]) \
                == (3, 2, 1)


class TestClientResilience:
    def test_connect_refused_is_typed_and_prompt(self):
        """Satellite regression: a down server is a typed error under the
        configured timeout — never an unbounded hang."""
        import socket as socket_mod

        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens there now
        t0 = time.monotonic()
        with pytest.raises(ServiceUnavailable) as exc:
            ServiceClient(address=("127.0.0.1", dead_port), timeout=2.0)
        assert time.monotonic() - t0 < 10.0
        assert exc.value.kind == "unavailable"

    def test_connect_timeout_none_still_works(self, grid_A):
        """timeout=None means unbounded, not broken: connect and factor
        against a live server must succeed."""
        with FactorService(**SVC_KW) as svc:
            server = ServiceServer(svc, port=0).start_background()
            try:
                with ServiceClient(address=server.address,
                                   timeout=None) as client:
                    assert client.ping()
                    r = client.factor(grid_A, timeout=120)
                    assert _bitwise(r.L, _cold_L(grid_A))
            finally:
                server.close()

    def test_reconnect_after_broken_socket(self, grid_A):
        """A broken connection surfaces as a typed ServiceUnavailable; the
        same client's next call reconnects, and the resubmitted job runs
        again to a bitwise factor."""
        with FactorService(**SVC_KW) as svc:
            server = ServiceServer(svc, port=0).start_background()
            try:
                with ServiceClient(address=server.address) as client:
                    first = client.factor(grid_A, timeout=120)
                    client._sock.close()  # snap the pipe under the client
                    with pytest.raises(ServiceUnavailable):
                        client.factor(grid_A, timeout=120)
                    r = client.factor(grid_A, timeout=120)
                    assert _bitwise(r.L, _cold_L(grid_A))
                    assert r.job_id != first.job_id
                    assert svc.metrics.submitted == 2
            finally:
                server.close()

    def test_health_verb_over_the_wire(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            server = ServiceServer(svc, port=0).start_background()
            try:
                with ServiceClient(address=server.address) as client:
                    client.factor(grid_A, timeout=120)
                    h = client.health()
                    assert h["status"] == "ok"
                    assert h["pool"]["nprocs"] == 2
            finally:
                server.close()


class TestGracefulDrain:
    def test_close_fails_stuck_handles_typed(self, grid_A):
        """Satellite: a handle the drain never reaches is failed with a
        typed ServiceClosed — a blocked ``result()`` caller always gets
        an answer."""
        svc = FactorService(**SVC_KW).start()
        svc.factor(grid_A)
        stuck = JobHandle(FactorJob(job_id="stuck", A=grid_A))
        svc._running = stuck  # the dispatcher's one job, never answered
        svc.close()
        assert stuck.done()
        with pytest.raises(ServiceClosed):
            stuck.result(0)
        assert svc.metrics.records[-1].job_id == "stuck"
        svc.close()  # idempotent

    def test_a_job_the_drain_gave_up_on_is_counted_once(self, grid_A):
        """close() fails the job the dispatcher still holds once the
        drain times out; when that job ends later, it is not counted (or
        answered) a second time."""
        svc = FactorService(**SVC_KW).start()
        first = svc.factor(grid_A)
        run_job, release = svc._run_job, threading.Event()

        def held(queued):
            release.wait(60)
            run_job(queued)

        svc._run_job = held
        # Fails at dispatch without touching the crew (unknown pattern).
        late = svc.submit(pattern_id="nope", values=grid_A.data)
        give_up = time.monotonic() + 30.0
        while svc._running is not late and time.monotonic() < give_up:
            time.sleep(0.001)
        svc.close(timeout=0.05)
        with pytest.raises(ServiceClosed, match="timed out"):
            late.result(0)
        release.set()
        svc._dispatcher.join(60)
        assert not svc._dispatcher.is_alive()
        assert [r.job_id for r in svc.metrics.records] == [
            first.job_id, late.job_id,
        ]
        jobs = svc.stats()["service"]["jobs"]
        assert (jobs["submitted"], jobs["completed"], jobs["failed"]) \
            == (2, 1, 1)
        with pytest.raises(ServiceClosed):
            late.result(0)

    def test_a_late_job_brings_no_crew_back(self, grid_A):
        """A job that outlives close()'s drain finds the pool closed for
        good: no crew starts behind the closed service, and the
        dispatcher, the cache's only writer, releases what the late job
        cached when its loop ends."""
        svc = FactorService(**SVC_KW).start()
        run_job = svc._run_job

        def late(queued):
            time.sleep(1.0)
            run_job(queued)

        svc._run_job = late
        try:
            handle = svc.submit(grid_A)
            give_up = time.monotonic() + 30.0
            while svc._running is not handle and time.monotonic() < give_up:
                time.sleep(0.001)
            svc.close(timeout=0.1)
            with pytest.raises(ServiceClosed, match=r"after 0\.1s"):
                handle.result(0)
            svc._dispatcher.join(60)
            assert not svc._dispatcher.is_alive()
            assert not [p.name for p in mp.active_children()
                        if p.name.startswith("repro-pool-")]
            assert not svc.pool.running
            assert len(svc.cache) == 0
        finally:  # release whatever a late job may have brought back
            svc.pool.close()
            svc.cache.close()

    def test_queued_jobs_fail_typed_on_close(self, grid_A):
        """Jobs still in the admission queue at close() resolve typed."""
        svc = FactorService(**SVC_KW)
        svc._started = True  # no dispatcher: the queue holds the job
        handle = svc.submit(grid_A)
        svc.close()
        with pytest.raises(ServiceClosed):
            handle.result(0)
