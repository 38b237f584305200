"""The factorization service: pattern cache behavior, warm-path bitwise
correctness, admission control, typed errors, the TCP client/server
pair, and the ``mp`` facade's one plan per instance."""

import logging
import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.matrices import fleet_like_matrix, grid2d_matrix
from repro.service import (
    AdmissionRejected,
    FactorService,
    JobFailed,
    JobQueue,
    PatternCache,
    PatternEntry,
    ServiceClient,
    ServiceClosed,
    ServiceServer,
    UnknownPatternError,
    pattern_digest,
)
from repro.solver import SparseCholesky
from tests.test_graph_adjacency import with_stored_zero

SVC_KW = dict(nprocs=2, ordering="nd", block_size=8, timeout_s=120)


@pytest.fixture(scope="module")
def grid_A():
    return grid2d_matrix(10).A.tocsc()


@pytest.fixture(scope="module")
def grid_A2(grid_A):
    A2 = grid_A.copy()
    A2.setdiag(A2.diagonal() + 1.25)
    return A2


def _cold_L(A, block_size=8):
    return SparseCholesky(A, ordering="nd", block_size=block_size).factor().L


def _bitwise(L, ref):
    return (
        np.array_equal(L.indptr, ref.indptr)
        and np.array_equal(L.indices, ref.indices)
        and np.array_equal(L.data, ref.data)
    )


class TestFactorService:
    def test_cold_then_warm_bitwise(self, grid_A, grid_A2):
        """Miss, then hit on the same pattern; both factors bitwise equal
        a cold sequential factor of the same values."""
        with FactorService(**SVC_KW) as svc:
            r1 = svc.factor(grid_A)
            r2 = svc.factor(grid_A2)
            assert (r1.cache, r2.cache) == ("miss", "hit")
            assert r1.pattern_id == r2.pattern_id
            assert _bitwise(r1.L, _cold_L(grid_A))
            assert _bitwise(r2.L, _cold_L(grid_A2))
            # warm jobs skip symbolic analysis entirely
            assert r1.record.setup_s > 0.0
            assert r2.record.setup_s == 0.0

    def test_service_checks_the_pattern_at_submit(self, grid_A):
        """A lone triangle is mirrored before it is hashed and analysed;
        an unsymmetric or empty matrix is refused before it is queued."""
        from scipy import sparse

        with FactorService(**SVC_KW) as svc:
            r = svc.factor(sparse.tril(grid_A))
            assert _bitwise(r.L, _cold_L(grid_A))
            assert svc.factor(grid_A).cache == "hit"
            lopsided = grid_A.tolil()
            lopsided[0, grid_A.shape[0] - 1] = 1.0
            with pytest.raises(ValueError, match="not symmetric"):
                svc.submit(lopsided.tocsc())
            with pytest.raises(ValueError, match="empty"):
                svc.submit(sparse.csc_matrix((0, 0)))

    def test_values_only_warm_path(self, grid_A, grid_A2):
        """(pattern_id, values) resubmission — no hashing, no full
        matrix — still bitwise identical to the cold factor."""
        with FactorService(**SVC_KW) as svc:
            r1 = svc.factor(grid_A)
            r2 = svc.factor(pattern_id=r1.pattern_id, values=grid_A2.data)
            assert r2.cache == "hit"
            assert _bitwise(r2.L, _cold_L(grid_A2))
            x = r2.solve(np.ones(grid_A2.shape[0]))
            res = np.linalg.norm(grid_A2 @ x - 1.0)
            assert res < 1e-8

    def test_stored_zero_keeps_the_pattern_machinery(self):
        """The ordering reads the pattern only, so values that store a
        0.0 off the diagonal factor warm through the pattern's cached
        machinery bitwise like a cold factor of those values."""
        A = fleet_like_matrix(120, seed=1).A.tocsc()
        B = with_stored_zero(A)
        with FactorService(**SVC_KW) as svc:
            r1 = svc.factor(A)
            r2 = svc.factor(pattern_id=r1.pattern_id, values=B.data)
            assert r2.cache == "hit"
            assert _bitwise(r2.L, _cold_L(B))

    def test_validate_mode(self, grid_A, grid_A2):
        with FactorService(validate=True, **SVC_KW) as svc:
            r = svc.factor(grid_A)
            assert r.cache == "miss"
            r2 = svc.factor(pattern_id=r.pattern_id, values=grid_A2.data)
            assert r2.cache == "hit"

    def test_unknown_pattern_is_typed(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)
            with pytest.raises(UnknownPatternError):
                svc.factor(pattern_id="deadbeefdeadbeef",
                           values=grid_A.data)
            # the failed lookup must not count as a buildable miss
            assert svc.cache.stats()["misses"] == 1

    def test_wrong_values_length_is_typed(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            r = svc.factor(grid_A)
            with pytest.raises(JobFailed):
                svc.factor(pattern_id=r.pattern_id,
                           values=grid_A.data[:-3])

    def test_job_metrics_carry_service_context(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            r = svc.factor(grid_A)
            extra = r.metrics.extra["service"]
            assert extra["job_id"] == r.job_id
            assert extra["cache"] == "miss"
            assert extra["batch_size"] >= 1
            d = r.metrics.to_dict()
            assert d["extra"]["service"]["job_id"] == r.job_id

    def test_concurrent_submits_run_one_at_a_time(self, grid_A, grid_A2):
        """Four submits from four threads over two patterns: each factor
        is bitwise the sequential one, every job ran alone
        (``batch_size == 1``), and the records land in admission order."""
        other = grid2d_matrix(9).A.tocsc()
        mats = [grid_A, other, grid_A2, other * 2.0]
        admitted = []

        class Recording(deque):  # appended to under the queue's lock
            def append(self, queued):
                admitted.append(queued.job.job_id)
                super().append(queued)

        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)  # one pattern warm, one cold
            svc.queue._items = Recording()
            n0 = len(svc.metrics.records)
            handles = {}

            def client(i):
                handles[i] = svc.submit(mats[i])

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, M in enumerate(mats):
                r = handles[i].result(120)
                assert _bitwise(r.L, _cold_L(M))
                assert r.record.batch_size == 1
            done = [r.job_id for r in svc.metrics.records[n0:]]
            assert done == admitted
            assert sorted(done) == sorted(h.job_id for h in handles.values())

    def test_stats_shape(self, grid_A):
        with FactorService(**SVC_KW) as svc:
            svc.factor(grid_A)
            s = svc.stats()
            assert s["service"]["jobs"]["submitted"] == 1
            assert "queue" not in s  # one ledger: the service's
            assert s["pattern_cache"]["entries"] == 1
            assert s["service"]["jobs"]["completed"] == 1

    def test_closed_service_is_typed(self, grid_A):
        svc = FactorService(**SVC_KW)
        svc.start()
        svc.factor(grid_A)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ServiceClosed):
            svc.submit(grid_A)

    @pytest.mark.parametrize("transport", ["inline", "shm"])
    def test_a_bad_gather_fails_the_job_through_the_normal_path(
        self, grid_A, grid_A2, transport
    ):
        """A gather the driver cannot trust — a block that fails its
        rank's CRC: a flipped shipped word (inline), a CRC that is not the
        one published (shm) — is a ``JobFailed`` with a record, not a
        crashed handler; the next job is served."""
        from repro.runtime.arena import shm_available

        if transport == "shm" and not shm_available():
            pytest.skip("no POSIX shared memory")
        with FactorService(transport=transport, **SVC_KW) as svc:
            pid = svc.factor(grid_A).pattern_id
            run = svc.pool.run

            def tampered(job, timeout_s):
                outcome = run(job, timeout_s)
                res = outcome.results[0]
                if transport == "inline":
                    res.words.view(np.uint64)[0] ^= 1
                else:
                    res.held[1][0] ^= 1
                return outcome

            svc.pool.run = tampered
            with pytest.raises(JobFailed) as err:
                svc.factor(pattern_id=pid, values=grid_A2.data)
            assert "CRC mismatch" in err.value.detail
            assert "rank 0" in err.value.detail
            record = svc.metrics.records[-1]
            assert (record.status, record.attempts) == ("failed", 1)
            svc.pool.run = run
            r = svc.factor(pattern_id=pid, values=grid_A2.data)
            assert _bitwise(r.L, _cold_L(grid_A2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_matrix_fails_the_job_through_the_normal_path(
        self, grid_A, grid_A2, bad, caplog
    ):
        """A NaN/Inf on ``A``'s diagonal factors without an ``info``; the
        assembly's finiteness check makes it a ``JobFailed`` with a
        record — no crashed handler, no resident factor — cold and warm,
        and the next job is served."""
        poisoned = grid_A.copy()
        poisoned[50, 50] = bad
        with FactorService(**SVC_KW) as svc:
            with pytest.raises(JobFailed, match="non-finite"):
                svc.factor(poisoned)
            record = svc.metrics.records[-1]
            assert (record.status, record.attempts) == ("failed", 1)
            entry = svc.cache.peek(record.pattern_id)
            assert entry.last_factor is None
            with pytest.raises(JobFailed, match="no completed factor"):
                svc.solve(np.ones(grid_A.shape[0]), record.pattern_id)
            with pytest.raises(JobFailed, match="non-finite"):
                svc.factor(pattern_id=record.pattern_id, values=poisoned.data)
            assert entry.last_factor is None
            r = svc.factor(pattern_id=record.pattern_id, values=grid_A2.data)
            assert _bitwise(r.L, _cold_L(grid_A2))
        assert not [r for r in caplog.records if "crashed" in r.getMessage()]

    def test_eviction_destroys_arena(self, grid_A):
        """LRU eviction releases the pattern's arena after the batch."""
        destroyed = []

        class _Arena:
            """Delegating sentinel: records the destroy, then releases
            the real arena (None on the inline transport)."""

            def __init__(self, real):
                self.real = real
                self.name = "fake" if real is None else real.name

            def destroy(self):
                destroyed.append("destroyed")
                if self.real is not None:
                    self.real.destroy()

        with FactorService(cache_capacity=2, **SVC_KW) as svc:
            pats = [grid2d_matrix(k).A.tocsc() for k in (6, 7, 8)]
            svc.factor(pats[0])
            first = next(iter(svc.cache._entries.values()))
            first.arena = _Arena(first.arena)
            svc.factor(pats[1])
            svc.factor(pats[2])  # capacity 2: evicts the first pattern
            assert svc.cache.stats()["evictions"] == 1
            assert destroyed == ["destroyed"]
            # the evicted pattern rebuilds transparently
            r = svc.factor(pats[0])
            assert r.cache == "miss"
            assert _bitwise(r.L, _cold_L(pats[0]))


class TestCacheThreading:
    def test_the_dispatcher_is_the_caches_only_writer(
        self, grid_A, grid_A2, monkeypatch
    ):
        """``solve()`` reads the cache with the counter-neutral ``peek``
        on the caller's thread; every ``lookup`` and ``put`` runs on the
        dispatcher thread, the hit count is the number of jobs that hit,
        and an unknown pattern id counts no miss."""
        b = np.ones(grid_A.shape[0])
        with FactorService(**SVC_KW) as svc:
            threads = []
            for name in ("lookup", "put"):
                def spy(*args, _real=getattr(svc.cache, name)):
                    threads.append(threading.current_thread())
                    return _real(*args)

                monkeypatch.setattr(svc.cache, name, spy)
            r = svc.factor(grid_A)
            svc.solve(b, r.pattern_id)
            svc.factor(pattern_id=r.pattern_id, values=grid_A2.data)
            svc.factor(grid_A2)
            svc.solve(b, r.pattern_id)
            with pytest.raises(UnknownPatternError):
                svc.solve(b, "deadbeefdeadbeef")
            with pytest.raises(UnknownPatternError):
                svc.factor(pattern_id="deadbeefdeadbeef", values=grid_A.data)
            assert threads and set(threads) == {svc._dispatcher}
            hits = [rec for rec in svc.metrics.records if rec.cache == "hit"]
            assert svc.cache.hits == len(hits) == 4
            assert svc.cache.misses == 1


class TestPatternCacheUnit:
    def _entry(self, pid, arena=None):
        return PatternEntry(
            pattern_id=pid, symbolic=None, structure=None, tg=None,
            owners=None, mapping_name="t", perm=None, arena=arena,
        )

    def test_digest_covers_pattern_and_knobs(self, grid_A, grid_A2):
        knobs = ("nd", 8, 2, "DW/CY", False, "inline")
        # same pattern, different values -> same digest
        assert pattern_digest(grid_A, knobs) == pattern_digest(
            grid_A2, knobs
        )
        other = grid2d_matrix(11).A.tocsc()
        assert pattern_digest(grid_A, knobs) != pattern_digest(
            other, knobs
        )
        assert pattern_digest(grid_A, knobs) != pattern_digest(
            grid_A, ("nd", 16, 2, "DW/CY", False, "inline")
        )

    def test_lru_order_and_counters(self):
        cache = PatternCache(2)
        cache.put(self._entry("a"))
        cache.put(self._entry("b"))
        assert cache.lookup("a") is not None  # refreshes a
        evicted = cache.put(self._entry("c"))  # b is now LRU
        assert [e.pattern_id for e in evicted] == ["b"]
        assert cache.lookup("b") is None
        # a miss is an entry built and put; an unknown id counts nothing
        assert (cache.hits, cache.misses, cache.evictions) == (1, 3, 1)

    def test_a_capacity_of_one_is_honoured(self):
        cache = PatternCache(1)
        assert cache.put(self._entry("a")) == []
        assert [e.pattern_id for e in cache.put(self._entry("b"))] == ["a"]
        assert cache.stats()["capacity"] == 1 and len(cache) == 1

class TestAdmission:
    """The admission queue never hangs: a full queue holds a submitter for
    its ``timeout`` and then refuses it typed, and a seeded load trace
    drains deterministically."""

    def test_reject_policy_is_immediate_and_typed(self):
        """A zero wait is the immediate refusal."""
        q = JobQueue(capacity=2)
        q.put("a")
        q.put("b")
        with pytest.raises(AdmissionRejected) as exc:
            q.put("c", timeout=0)
        assert exc.value.reason == "queue_full"
        assert len(q) == 2

    def test_block_policy_times_out_typed(self):
        q = JobQueue(capacity=1)
        q.put("a")
        t0 = time.monotonic()
        with pytest.raises(AdmissionRejected) as exc:
            q.put("b", timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        assert exc.value.reason == "queue_full"
        assert len(q) == 1

    def test_block_policy_backpressure_releases(self):
        q = JobQueue(capacity=1)
        q.put("a")
        admitted = threading.Event()

        def submitter():
            q.put("b", timeout=10.0)
            admitted.set()

        t = threading.Thread(target=submitter, daemon=True)
        t.start()
        assert not admitted.wait(0.05)  # genuinely blocked
        assert q.get() == "a"  # free a slot
        assert admitted.wait(5.0)
        assert q.get() == "b"
        t.join()

    def test_closed_queue_is_typed(self):
        q = JobQueue(capacity=2)
        q.close()
        with pytest.raises(ServiceClosed):
            q.put("a")

    def test_get_is_fifo_and_none_once_closed_and_empty(self):
        q = JobQueue(capacity=8)
        for item in "abc":
            q.put(item)
        assert [q.get(), q.get()] == ["a", "b"]
        q.close()
        assert q.get() == "c"  # a closed queue still drains
        assert q.get() is None

    @pytest.mark.parametrize(
        "timeout", [0.001, 0], ids=["block", "reject"]
    )
    def test_seeded_trace_drains_deterministically(self, timeout):
        """Same seeded arrival trace, same capacity → identical
        admit/reject decisions, with a consumer
        draining concurrently, up to two jobs at a time — whether a full
        queue refuses at once or after a short wait."""

        def run_once():
            rng = np.random.default_rng(7)
            q = JobQueue(capacity=4)
            decisions = []
            # deterministic interleave: now and then the consumer
            # takes up to 2
            for i in range(30):
                try:
                    q.put(i, timeout=timeout)
                    decisions.append(("admit", i, None))
                except AdmissionRejected as exc:
                    decisions.append(("reject", i, exc.reason))
                if rng.random() < 0.4:
                    for _ in range(min(2, len(q))):
                        decisions.append(("served", q.get(), None))
            decisions.append(("drained", tuple(q.drain()), None))
            return decisions

        first = run_once()
        assert first == run_once()
        verdicts = [d[0] for d in first if d[0] in ("admit", "reject")]
        assert len(verdicts) == 30 and "reject" in verdicts

    def test_service_backpressure_drains(self, grid_A):
        """Tiny queue: every submission eventually admits and completes
        — backpressure, not loss."""
        with FactorService(queue_capacity=2, **SVC_KW) as svc:
            svc.factor(grid_A)  # warm the pattern
            handles = []
            for i in range(6):
                A = grid_A.copy()
                A.setdiag(A.diagonal() + 0.1 * (i + 1))
                handles.append(svc.submit(A, timeout=60))
            results = [h.result(120) for h in handles]
            assert all(r.cache == "hit" for r in results)
            assert svc.metrics.rejected == 0
            assert svc.metrics.submitted == 7

    def test_service_reject_policy_is_typed_not_a_hang(self):
        """A full service queue refuses a zero wait immediately."""
        svc = FactorService(queue_capacity=2, **SVC_KW)
        # fill the queue before the dispatcher exists: the typed
        # rejection must come from admission, not from a job timeout
        rejected = 0
        for _ in range(4):
            try:
                svc.queue.put(object(), timeout=0)  # placeholder load
            except AdmissionRejected as exc:
                rejected += 1
                assert exc.reason == "queue_full"
        assert rejected == 2
        svc.queue.drain()
        svc.close()


class TestServiceLogging:
    """Every path that drops a job or a pattern says so on the
    ``repro.service`` logger, naming what it dropped."""

    @staticmethod
    def _undispatched():
        """A service that admits but never dispatches (no crew is
        spawned), so a queue of one stays full."""
        svc = FactorService(queue_capacity=1, **SVC_KW)
        svc._started = True
        return svc

    @staticmethod
    def _logged(caplog, level, *words):
        return [
            r for r in caplog.records
            if r.name == "repro.service" and r.levelno == level
            and all(w in r.getMessage() for w in words)
        ]

    def test_admission_reject_is_logged(self, grid_A, caplog):
        svc = self._undispatched()
        kept = svc.submit(grid_A)
        with pytest.raises(AdmissionRejected):
            svc.submit(grid_A, timeout=0)
        (refused,) = self._logged(caplog, logging.WARNING, "rejected")
        assert kept.job_id not in refused.getMessage()
        assert not self._logged(caplog, logging.WARNING, kept.job_id)
        svc.close()

    def test_pattern_eviction_is_logged(self, caplog):
        caplog.set_level(logging.INFO, logger="repro.service")
        kw = {**SVC_KW, "nprocs": 1}
        with FactorService(cache_capacity=2, **kw) as svc:
            first = svc.factor(grid2d_matrix(4).A.tocsc()).pattern_id
            for k in (5, 6):  # capacity 2: the third pattern evicts the first
                svc.factor(grid2d_matrix(k).A.tocsc())
        (record,) = self._logged(caplog, logging.INFO, "evicted")
        assert first in record.getMessage()


class TestClientServer:
    def test_tcp_round_trip(self, grid_A, grid_A2):
        """Cold + warm values-only over the socket, typed remote errors,
        stats, clean shutdown."""
        with FactorService(**SVC_KW) as svc:
            server = ServiceServer(svc, port=0)
            server.start_background()
            try:
                with ServiceClient(address=server.address) as client:
                    assert client.ping()
                    r1 = client.factor(grid_A)
                    assert r1.cache == "miss"
                    r2 = client.factor(
                        pattern_id=r1.pattern_id, values=grid_A2.data
                    )
                    assert r2.cache == "hit"
                    assert _bitwise(r2.L, _cold_L(grid_A2))
                    x = r2.solve(np.ones(grid_A2.shape[0]))
                    assert np.linalg.norm(grid_A2 @ x - 1.0) < 1e-8
                    with pytest.raises(UnknownPatternError):
                        client.factor(pattern_id="ffffffffffffffff",
                                      values=grid_A.data)
                    stats = client.stats()
                    assert stats["pattern_cache"]["hits"] >= 1
                    client.shutdown_server()
                    assert server.shutdown_requested
            finally:
                server.close()

    def test_client_needs_exactly_one_target(self):
        with pytest.raises(TypeError):
            ServiceClient()


class TestMpFacade:
    def test_repeat_mp_factor_plans_once(self, grid_A, monkeypatch):
        """The ``mp`` façade plans its pattern once per instance, by
        construction: a second factor() plans no owners, so there is no
        plan cache to count in the metrics."""
        from repro.runtime import engine

        planned = []
        real = engine.plan_owners
        monkeypatch.setattr(engine, "plan_owners",
                            lambda *a: planned.append(a) or real(*a))
        with SparseCholesky(
            grid_A, ordering="nd", block_size=8, backend="mp", nprocs=2
        ) as chol:
            chol.factor()
            chol.factor()
            assert len(planned) == 1
            assert "plan_cache" not in chol.runtime_metrics.to_dict()["extra"]

