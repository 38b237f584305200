"""The self-healing service: worker death mid-batch (hard and soft, on
both transports), per-job deadlines, the circuit breaker, job-id dedup,
client reconnect/retry, graceful drain, and the service chaos CLI.

The acceptance bar throughout: every submitted job either completes —
with its survival path tagged in the record — or raises a typed
:class:`~repro.service.jobs.ServiceError` within its deadline; completed
factors are bitwise identical to the fault-free run; nothing leaks shm.
"""

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.matrices import grid2d_matrix
from repro.runtime import shm_available
from repro.runtime.faults import CrashSpec, FaultPlan
from repro.service import (
    CircuitBreaker,
    DeadlineExceeded,
    FactorService,
    JobFailed,
    RetryPolicy,
    ServiceClient,
    ServiceClosed,
    ServiceServer,
    ServiceUnavailable,
)
from repro.service.jobs import FactorJob, JobHandle
from repro.solver import SparseCholesky

SVC_KW = dict(
    nprocs=2, ordering="nd", block_size=8,
    timeout_s=120, stall_timeout_s=10.0,
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
    """Worker death mid-job: the pool heals on the survivors, the affected
    job re-runs (re-planned owners, re-shipped contexts), and the
    recovered factors stay bitwise identical — on both transports."""

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_hard_kill_mid_batch_recovers_bitwise(self, grid_A, transport):
        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        before = _shm_segments()
        mats = [_shifted(grid_A, 0.25 * (i + 1)) for i in range(4)]
        # The kill rides the last job of the burst: the job after a heal
        # regrows the crew, and the test looks at the shrunken one.
        with FactorService(
            transport=transport, fault_plan=HARD_KILL, fault_jobs=(3,),
            **SVC_KW,
        ) as svc:
            handles = [svc.submit(M) for M in mats]
            results = [h.result(120) for h in handles]
            # every job completed despite the mid-burst worker death
            for M, r in zip(mats, results):
                assert _bitwise(r.L, _cold_L(M))
            outcomes = {r.record.outcome for r in results}
            assert outcomes & {"recovered", "degraded_sequential"}
            assert svc.metrics.pool_restarts >= 1
            # P - f: the crew shrank, and health says so
            assert svc.pool.nprocs < svc.nprocs
            assert svc.pool.generation >= 2
            assert svc.health()["status"] == "degraded"
        assert _shm_segments() == before

    def test_soft_crash_retries_without_restart(self, grid_A):
        """A raising (soft-crash) worker ABORTs only its job; the pool
        survives and the retried job recovers bitwise."""
        M = _shifted(grid_A, 0.5)
        with FactorService(
            fault_plan=SOFT_CRASH, fault_jobs=(0,), **SVC_KW
        ) as svc:
            r = svc.factor(M)
            assert _bitwise(r.L, _cold_L(M))
            assert r.record.outcome == "recovered"
            assert r.record.attempts == 2
            assert svc.metrics.pool_restarts == 0
            assert svc.pool.generation == 1
            assert svc.health()["status"] == "ok"

    def test_sigkill_between_batches_heals(self, grid_A):
        """A real SIGKILL while the pool is idle: the next batch detects
        the dead rank, heals, and completes on the survivors."""
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
            assert r2.record.outcome in ("recovered", "degraded_sequential")
            assert svc.pool.nprocs == 1
            assert svc.health()["pool"]["alive"]

    def test_heartbeats_reported_in_health(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)
            ages = svc.health()["pool"]["heartbeat_age_s"]
            assert set(ages) == {"0", "1"}
            assert all(age >= 0.0 for age in ages.values())


class TestDeadlines:
    def test_expired_job_is_typed_and_batch_unharmed(self, grid_A):
        """A job whose deadline passes in the queue raises the typed
        error; the job queued behind it completes bitwise."""
        M = _shifted(grid_A, 1.0)
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)  # warm the pattern
            doomed = svc.submit(_shifted(grid_A, 2.0), deadline_s=1e-4)
            mate = svc.submit(M)
            with pytest.raises(DeadlineExceeded):
                doomed.result(120)
            assert _bitwise(mate.result(120).L, _cold_L(M))
            assert svc.metrics.expired >= 1

    def test_result_wait_bounded_by_deadline(self):
        """``JobHandle.result()`` never outlives the job's budget, even
        when the server goes silent (nothing ever completes this job)."""
        job = FactorJob(job_id="silent", A=grid2d_matrix(6).A.tocsc(),
                        deadline_s=0.2)
        handle = JobHandle(job)
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            handle.result()  # no timeout arg: the deadline is the bound
        assert time.monotonic() - t0 < 5.0

    def test_default_deadline_applies(self, grid_A):
        with FactorService(default_deadline_s=1e-4, **SVC_KW) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.factor(grid_A)
            # the client-side deadline fires first; the dispatcher's
            # record lands moments later
            deadline = time.monotonic() + 30.0
            while not svc.metrics.records and time.monotonic() < deadline:
                time.sleep(0.01)
            rec = svc.metrics.records[-1]
            assert rec.status == "expired"
            assert rec.deadline_s == pytest.approx(1e-4)


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_threshold_opens_and_cooldown_half_opens(self):
        clk = _FakeClock()
        b = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=clk)
        assert b.allow()
        b.record_failure()
        assert b.state == CircuitBreaker.CLOSED
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN
        assert b.trips == 1
        assert not b.allow()
        clk.now += 5.0
        assert b.allow()  # the half-open probe
        assert b.state == CircuitBreaker.HALF_OPEN
        assert not b.allow()  # exactly one probe in flight

    def test_probe_outcome_decides(self):
        clk = _FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clk)
        b.record_failure()
        clk.now += 1.0
        assert b.allow()
        b.record_failure()  # the probe failed: straight back open
        assert b.state == CircuitBreaker.OPEN
        assert b.trips == 2
        clk.now += 1.0
        assert b.allow()
        b.record_success()
        assert b.state == CircuitBreaker.CLOSED
        assert b.allow()

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(threshold=3, cooldown_s=1.0)
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == CircuitBreaker.CLOSED

    def test_disabled_breaker_never_opens(self):
        b = CircuitBreaker(threshold=0, cooldown_s=1.0)
        for _ in range(10):
            b.record_failure()
        assert b.allow() and b.state == CircuitBreaker.CLOSED

    def test_service_breaker_degrades_then_recovers(self, grid_A):
        """End to end: a kill on the first job trips a
        threshold-1 breaker; the stream continues degraded-sequential
        (still bitwise); after the cooldown a probe closes it again."""
        mats = [_shifted(grid_A, 0.2 * (i + 1)) for i in range(3)]
        with FactorService(
            fault_plan=HARD_KILL, fault_jobs=(0,),
            breaker_threshold=1, breaker_cooldown_s=0.3,
            max_restarts=0, **SVC_KW,
        ) as svc:
            handles = [svc.submit(M) for M in mats]
            results = [h.result(120) for h in handles]
            for M, r in zip(mats, results):
                assert _bitwise(r.L, _cold_L(M))
            assert svc.breaker.trips >= 1
            assert svc.metrics.degraded >= 1
            assert svc.health()["status"] == "degraded"
            time.sleep(0.4)  # past the cooldown: next job is the probe
            r = svc.factor(_shifted(grid_A, 9.0))
            assert r.record.outcome in ("clean", "recovered")
            assert svc.breaker.state == CircuitBreaker.CLOSED


class TestRetryPolicy:
    def test_seeded_backoff_is_deterministic_and_capped(self):
        a = RetryPolicy(retries=5, base_s=0.05, cap_s=0.2, seed=3)
        b = RetryPolicy(retries=5, base_s=0.05, cap_s=0.2, seed=3)
        delays = [a.delay(k) for k in range(5)]
        assert delays == [b.delay(k) for k in range(5)]
        assert all(0.0 < d <= 0.2 for d in delays)

    def test_should_retry_respects_budget_and_retryable(self):
        p = RetryPolicy(retries=2)
        assert p.should_retry(0, ServiceUnavailable("down"))
        assert p.should_retry(1, ServiceUnavailable("down"))
        assert not p.should_retry(2, ServiceUnavailable("down"))
        # not retryable: the budget is spent / the job itself failed
        assert not p.should_retry(0, DeadlineExceeded("late"))
        assert not p.should_retry(0, JobFailed("j", "boom"))


class TestDedup:
    def test_completed_job_id_returns_cached_result(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            r1 = svc.factor(grid_A, job_id="job-42")
            r2 = svc.factor(grid_A, job_id="job-42")
            assert r2 is r1  # the very same result object, no re-run
            assert svc.metrics.deduped == 1
            assert svc.metrics.submitted == 1

    def test_inflight_job_id_returns_same_handle(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)  # make sure the dispatcher is warm
            job = FactorJob(job_id="inflight", A=grid_A)
            stuck = JobHandle(job)
            svc._outstanding["inflight"] = stuck
            assert svc.submit(grid_A, job_id="inflight") is stuck
            assert svc.metrics.deduped == 1
            svc._retire("inflight")

    def test_failed_jobs_are_not_cached(self, grid_A):
        """A retry of a failed job_id must re-run, not replay the
        failure."""
        with FactorService(**SVC_KW) as svc:
            r = svc.factor(grid_A)
            with pytest.raises(JobFailed):
                svc.factor(pattern_id=r.pattern_id,
                           values=grid_A.data[:-3], job_id="flaky")
            r2 = svc.factor(grid_A, job_id="flaky")
            assert _bitwise(r2.L, _cold_L(grid_A))
            assert svc.metrics.deduped == 0

    def test_the_dedup_table_is_bounded(self, grid_A, monkeypatch):
        monkeypatch.setattr("repro.service.service.DEDUP_CAPACITY", 2)
        with FactorService(**SVC_KW) as svc:
            for i in range(4):
                svc.factor(_shifted(grid_A, 0.1 * (i + 1)),
                           job_id=f"job-{i}")
            assert len(svc._completed) == 2
            assert set(svc._completed) == {"job-2", "job-3"}

    def test_only_named_results_are_kept_in_the_one_table(
        self, grid_A, monkeypatch
    ):
        """A job the service named itself can be retried by nobody, so
        its result (a whole factor) is not retained; named factor and
        solve results share the one bounded table."""
        b = np.ones(grid_A.shape[0])
        monkeypatch.setattr("repro.service.service.DEDUP_CAPACITY", 2)
        with FactorService(**SVC_KW) as svc:
            r = svc.factor(grid_A)
            svc.solve(b, pattern_id=r.pattern_id)
            assert not svc._completed and not svc._outstanding
            svc.factor(grid_A, job_id="f-1")
            s1 = svc.solve(b, pattern_id=r.pattern_id, job_id="s-1")
            assert list(svc._completed) == ["f-1", "s-1"]
            assert svc.solve(b, pattern_id=r.pattern_id, job_id="s-1") is s1
            svc.solve(b, pattern_id=r.pattern_id, job_id="s-2")
            assert list(svc._completed) == ["s-1", "s-2"]


class TestClientResilience:
    def test_connect_refused_is_typed_and_prompt(self):
        """Satellite regression: a down server is a typed, retryable
        error under the configured timeout — never an unbounded hang."""
        import socket as socket_mod

        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens there now
        t0 = time.monotonic()
        with pytest.raises(ServiceUnavailable) as exc:
            ServiceClient(address=("127.0.0.1", dead_port), timeout=2.0)
        assert time.monotonic() - t0 < 10.0
        assert exc.value.retryable

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

    def test_reconnect_and_retry_after_broken_socket(self, grid_A):
        """A broken connection surfaces as retryable ServiceUnavailable;
        with a RetryPolicy the client reconnects and the request
        succeeds (idempotent thanks to server-side job-id dedup)."""
        with FactorService(**SVC_KW) as svc:
            server = ServiceServer(svc, port=0).start_background()
            try:
                retry = RetryPolicy(retries=2, base_s=0.01, seed=0)
                with ServiceClient(address=server.address,
                                   retry=retry) as client:
                    client.factor(grid_A, timeout=120)
                    client._sock.close()  # snap the pipe under the client
                    r = client.factor(grid_A, timeout=120)
                    assert _bitwise(r.L, _cold_L(grid_A))
                    assert client.retry_count >= 1
                # without a policy the same breakage is a typed error
                with ServiceClient(address=server.address) as bare:
                    bare.ping()
                    bare._sock.close()
                    with pytest.raises(ServiceUnavailable):
                        bare.ping()
            finally:
                server.close()

    def test_socket_retry_dedups_on_job_id(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            server = ServiceServer(svc, port=0).start_background()
            try:
                with ServiceClient(address=server.address) as client:
                    client.factor(grid_A, job_id="wire-1", timeout=120)
                    client.factor(grid_A, job_id="wire-1", timeout=120)
                    assert svc.metrics.deduped == 1
                    # The socket client names every job, so a retry after
                    # a broken pipe finds the result of an "unnamed" call.
                    r = client.factor(grid_A, timeout=120)
                assert set(svc._completed) == {"wire-1", r.job_id}
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
                    assert h["breaker"]["state"] == "closed"
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
        svc._outstanding["stuck"] = stuck
        svc.close()
        assert stuck.done()
        with pytest.raises(ServiceClosed):
            stuck.result(0)
        assert svc.metrics.records[-1].job_id == "stuck"
        svc.close()  # idempotent

    def test_queued_jobs_fail_typed_on_close(self, grid_A):
        """Jobs still in the admission queue at close() resolve typed."""
        svc = FactorService(**SVC_KW)
        svc._started = True  # no dispatcher: the queue holds the job
        handle = svc.submit(grid_A)
        svc.close()
        with pytest.raises(ServiceClosed):
            handle.result(0)


class TestChaosServiceCLI:
    def test_matrix_subset_passes(self, capsys):
        from repro.cli import main

        rc = main([
            "chaos-service", "--jobs", "4", "--n", "8",
            "--scenarios", "none,deadline", "--stall-timeout", "10",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[ok] scenario=none" in out
        assert "[ok] scenario=deadline" in out
