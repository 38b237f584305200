"""The untraced pass: set-up, then R rounds of the interleaved job stream.

One closed-loop client drives the public facades with default knobs
(``SparseCholesky``, ``FactorService``; only ``nprocs`` and ``block_size``
are passed). Each round is

    fresh ``SparseCholesky(A_r)``; ``.factor()``; 5 x ``.solve(B)``;
    twice: one ``backend="mp"`` ``.factor()`` on a pre-analysed instance
           and one warm ``svc.factor(pattern_id, values)``;
    four warm ``svc.solve``

where ``A_r`` is the round's ``D A D`` matrix, so factor jobs write the
service's resident factor and solve jobs read it in one stream. The two
parallel paths are sampled twice a round because one sample of them is
about twice as noisy as one of a sequential path. Tracing is off everywhere
in this pass.
"""

from __future__ import annotations

import time
from statistics import quantiles

from bench import checks
from bench.calibrate import Calibrator, calibrated
from bench.env import peak_rss_mb
from bench.stats import median
from bench.workloads import (
    BLOCK_SIZE,
    NPROCS,
    PARALLEL_REPEATS,
    SERVICE_SOLVES,
    SOLVE_BATCH,
    ValueStream,
    Workload,
)

#: End-to-end metric -> unit. Timings are calibrated seconds.
END_TO_END_UNITS = {
    "setup_s": "s",
    "analyse_s": "s",
    "seq_factor_s": "s",
    "seq_solve_s": "s",
    "mp_factor_s": "s",
    "service_factor_p50_s": "s",
    "service_solve_p50_s": "s",
    "peak_rss_mb": "MB",
}
TIMED = [m for m in END_TO_END_UNITS if m not in ("setup_s", "peak_rss_mb")]


class EndToEnd:
    """State of one workload process through set-up and the rounds."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 corrupt: bool = False):
        self.workload = workload
        self.smoke = smoke
        #: Test hook: perturb the first mp factor so the gate must trip.
        self.corrupt = corrupt
        self.ledger = checks.Ledger()
        self.samples = {name: [] for name in TIMED}
        self.cal = None
        self.seed = seed

    # ------------------------------------------------------------------
    def setup(self, started_at: float, retake_budget: int = 0) -> dict:
        """Imports, inputs, service start, the cold service job and one
        untimed warm-up round. ``started_at`` is the ``time.time()`` at
        which the parent launched this process; ``retake_budget`` bounds
        the re-taken samples of the rounds that follow. Returns the set-up
        sample (calibrated with the probes taken along the way)."""
        import repro  # noqa: F401 - import cost belongs to set-up
        from repro.analysis import communication_volume
        from repro.analysis.comm_volume import solve_communication_volume
        from repro.numeric import BlockCholesky
        from repro.runtime import plan_owners
        from repro.service import FactorService
        from repro.solver import SparseCholesky

        self.SparseCholesky = SparseCholesky
        self.cal = Calibrator(retake_budget=0)
        cal = self.cal
        probes = [cal.probe()]
        self.stream = ValueStream(self.workload.pattern(self.smoke), self.seed)
        A0 = self.stream.next_matrix()
        self.A0 = A0
        self.mp = SparseCholesky(
            A0, block_size=BLOCK_SIZE, backend="mp", nprocs=NPROCS
        )
        # Sequential reference for the mp path: the calls the sequential
        # backend makes, on the mp instance's own analysis.
        self.L0 = self.ledger.op("setup.seq_factor", lambda: (BlockCholesky(
            self.mp.structure, self.mp.symbolic.A
        ).factor().to_csc(), []))
        owners, _ = plan_owners(
            self.mp.workmodel, self.mp.taskgraph, NPROCS, self.mp.mapping
        )
        self.predicted = communication_volume(self.mp.taskgraph, owners)
        self.predicted_solve = solve_communication_volume(
            self.mp.taskgraph, owners, nrhs=self.stream.B.shape[1]
        )
        probes.append(cal.probe())
        self.svc = FactorService(nprocs=NPROCS, block_size=BLOCK_SIZE).start()
        cold = self.ledger.op("setup.service_cold_factor", self._cold_job)
        if cold is None:
            raise RuntimeError("the cold service job failed: no warm path")
        self.pattern_id = cold.pattern_id
        probes.append(cal.probe())
        self.round(timed=False)
        probes.append(cal.probe())
        raw = time.time() - started_at
        cal.retake_budget = retake_budget
        return {"cal_s": calibrated(raw, probes), "raw_s": raw}

    def _cold_job(self):
        res = self.svc.factor(self.A0)
        problems = checks.record_problems(res.record)
        problems += checks.bitwise_problems(res.L, self.L0)
        problems += self._traffic(res.metrics)
        if res.cache != "miss":
            problems.append(f"first job was a cache {res.cache!r}")
        return res, problems

    def _traffic(self, metrics) -> list:
        if metrics is None:
            return ["no runtime metrics returned"]
        return checks.traffic_problems(
            metrics.messages_total, metrics.bytes_total, self.predicted
        )

    # ------------------------------------------------------------------
    def round(self, timed: bool = True) -> None:
        """One round of the job stream; every op is checked either way."""
        cal, ledger, B = self.cal, self.ledger, self.stream.B
        A = self.stream.next_matrix()
        norm_a = checks.inf_norm(A)

        def keep(name, sample, per_call=1):
            if timed:
                self.samples[name].append(
                    (sample.cal_s / per_call, sample.raw_s / per_call)
                )
            return sample.result

        def analyse():
            s = cal.sample(lambda: self.SparseCholesky(
                A, block_size=BLOCK_SIZE, nprocs=NPROCS
            ))
            return keep("analyse_s", s), []

        chol = ledger.op("analyse", analyse)
        if chol is None:
            return

        def seq_factor():
            # Re-factoring the same instance repeats the same work.
            s = cal.sample(chol.factor)
            return keep("seq_factor_s", s), []

        if ledger.op("seq_factor", seq_factor) is None:
            return

        def seq_solves():
            s = cal.sample(
                lambda: [chol.solve(B) for _ in range(SOLVE_BATCH)]
            )
            xs = keep("seq_solve_s", s, per_call=SOLVE_BATCH)
            problems = []
            for x in xs:
                problems += checks.residual_problems(A, x, B, norm_a)
            return xs, problems

        ledger.op("seq_solve", seq_solves)

        def mp_factor():
            s = cal.sample(self.mp.factor)
            keep("mp_factor_s", s)
            if self.corrupt:
                self.mp.L.data[0] *= 1.0 + 1e-9
                self.corrupt = False
            problems = checks.bitwise_problems(self.mp.L, self.L0)
            problems += self._traffic(self.mp.runtime_metrics)
            return True, problems

        def service_factor():
            s = cal.sample(lambda: self.svc.factor(
                pattern_id=self.pattern_id, values=A.data
            ))
            res = keep("service_factor_p50_s", s)
            problems = checks.record_problems(res.record)
            problems += checks.bitwise_problems(res.L, chol.L)
            problems += self._traffic(res.metrics)
            return res, problems

        for _ in range(PARALLEL_REPEATS if timed else 1):
            ledger.op("mp_factor", mp_factor)
            if ledger.op("service_factor", service_factor) is None:
                return  # no resident factor for the solves to read

        def service_solve():
            s = cal.sample(lambda: self.svc.solve(B, self.pattern_id))
            res = keep("service_solve_p50_s", s)
            problems = checks.record_problems(res.record)
            problems += checks.residual_problems(A, res.x, B, norm_a)
            if res.metrics is None:
                problems.append("no runtime metrics returned")
            else:
                problems += checks.traffic_problems(
                    res.metrics.solve_messages_total,
                    res.metrics.solve_bytes_total,
                    self.predicted_solve,
                )
            return res, problems

        for _ in range(SERVICE_SOLVES):
            ledger.op("service_solve", service_solve)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.svc.close()

    def metrics(self, setup: dict) -> dict:
        """Every end-to-end metric: calibrated median, raw median beside
        it, sample count and the calibrated samples' quartile distance."""
        out = {
            "setup_s": {
                "value": setup["cal_s"], "unit": "s",
                "raw": setup["raw_s"], "samples": 1,
            }
        }
        for name in TIMED:
            cal = [c for c, _ in self.samples[name]]
            raw = [r for _, r in self.samples[name]]
            entry = {"unit": END_TO_END_UNITS[name], "samples": len(cal)}
            if cal:
                entry["value"] = median(cal)
                entry["raw"] = median(raw)
                if len(cal) >= 2:
                    q = quantiles(cal, n=4)
                    entry["iqr"] = q[2] - q[0]
            out[name] = entry
        out["peak_rss_mb"] = {
            "value": peak_rss_mb(), "unit": "MB", "samples": 1,
        }
        return out
