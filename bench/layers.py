"""The traced pass: per-layer numbers from spans recorded in the harness.

Each layer's public functions are called directly (the calls the facades
make), every call inside a :class:`~bench.spans.SpanRecorder` span and a
pair of calibration probes, and the runtime's own ``trace=True`` is switched
on where a metric says so. Nothing here changes the program: a number that
needs a counter inside ``src/`` is not reported.
"""

from __future__ import annotations

import cProfile
import time

import numpy as np

from bench import checks
from bench.calibrate import Calibrator
from bench.spans import SpanRecorder
from bench.stats import median, percentile
from bench.workloads import BLOCK_SIZE, NPROCS, ValueStream, Workload

#: Per-layer metric -> (unit, better).
PER_LAYER = {
    "ordering.order_s": ("s", "lower"),
    "ordering.py_calls": ("count", "lower"),
    "symbolic.factor_s": ("s", "lower"),
    "symbolic.py_calls": ("count", "lower"),
    "symbolic.nnz_l": ("count", "lower"),
    "symbolic.factor_mflop": ("Mflop", "lower"),
    "blocks.partition_s": ("s", "lower"),
    "blocks.npanels": ("count", "lower"),
    "blocks.median_tile_mn": ("count", "higher"),
    "blocks.arena_padding_pct": ("%", "lower"),
    "fanout.taskgraph_s": ("s", "lower"),
    "fanout.ntasks": ("count", "lower"),
    "mapping.plan_owners_s": ("s", "lower"),
    "mapping.work_imbalance_dw": ("ratio", "lower"),
    "mapping.work_imbalance_cyclic": ("ratio", "lower"),
    "blockfact.init_s": ("s", "lower"),
    "blockfact.factor_s": ("s", "lower"),
    "blockfact.to_csc_s": ("s", "lower"),
    "blockfact.init_py_calls": ("count", "lower"),
    "blockfact.factor_py_calls": ("count", "lower"),
    "blockfact.kernel_replay_s": ("s", "lower"),
    "blockfact.overhead_frac": ("ratio", "lower"),
    "blockfact.bmod_scatter_frac": ("ratio", "lower"),
    "kernels.bfac_gflops": ("Gflop/s", "higher"),
    "kernels.bdiv_gflops": ("Gflop/s", "higher"),
    "kernels.bmod_gflops": ("Gflop/s", "higher"),
    "kernels.dgemm_peak_gflops": ("Gflop/s", "higher"),
    "solve.block_solve_s": ("s", "lower"),
    "solve.py_calls": ("count", "lower"),
    "parallel.threads_factor_s": ("s", "lower"),
    "ref.splu_s": ("s", "lower"),
    "ref.seq_over_splu": ("ratio", "lower"),
    "runtime.shm_outer_s": ("s", "lower"),
    "runtime.shm_wall_s": ("s", "lower"),
    "runtime.outside_wall_s": ("s", "lower"),
    "runtime.unaccounted_s": ("s", "lower"),
    "runtime.busy_max_s": ("s", "lower"),
    "runtime.busy_sum_s": ("s", "lower"),
    "runtime.idle_sum_s": ("s", "lower"),
    "runtime.comm_sum_s": ("s", "lower"),
    "runtime.measured_balance": ("ratio", "higher"),
    "runtime.messages": ("count", "lower"),
    "runtime.bytes": ("bytes", "lower"),
    "runtime.wire_bytes": ("bytes", "lower"),
    "runtime.inline_outer_s": ("s", "lower"),
    "runtime.dynamic_outer_s": ("s", "lower"),
    "runtime.tasks_stolen": ("count", "higher"),
    "runtime.p1_outer_s": ("s", "lower"),
    "runtime.scaling_eff_p2": ("ratio", "higher"),
    "runtime.speedup_vs_seq": ("ratio", "higher"),
    "runtime.solve_phase_s": ("s", "lower"),
    "runtime.solve_messages": ("count", "lower"),
    "runtime.solve_bytes": ("bytes", "lower"),
    "runtime.traced_outer_s": ("s", "lower"),
    "runtime.trace_overhead_frac": ("ratio", "lower"),
    "runtime.trace_events": ("count", "lower"),
    "wire.pack_unpack_us": ("us", "lower"),
    "arena.write_resolve_us": ("us", "lower"),
    "service.start_s": ("s", "lower"),
    "service.cold_factor_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.job_setup_s": ("s", "lower"),
    "service.job_run_s": ("s", "lower"),
    "service.job_assemble_s": ("s", "lower"),
    "service.factor_max_s": ("s", "lower"),
    "service.solve_p75_s": ("s", "lower"),
    "service.factor_over_seq": ("ratio", "lower"),
    "service.solve_over_seq": ("ratio", "lower"),
    "service.cache_hits": ("count", "higher"),
    "service.cache_misses": ("count", "lower"),
    "service.burst4_jobs_per_s": ("1/s", "higher"),
    "service.burst4_batch_size": ("count", "higher"),
    "service.tcp_factor_s": ("s", "lower"),
    "sim.plan_parallel_s": ("s", "lower"),
    "sim.efficiency_p64_cyclic": ("ratio", "higher"),
    "sim.efficiency_p64_heur": ("ratio", "higher"),
    "calib.slowdown": ("ratio", "lower"),
    "calib.cv": ("ratio", "lower"),
    "calib.samples_retaken": ("count", "lower"),
}

#: Mapping every P=2 path uses (the facades' default).
MAPPING = "DW/CY"


def count_calls(fn) -> int:
    """Function-call events (Python and C) during one ``fn()``.

    ``cProfile`` installs the same profile hook ``sys.setprofile`` does and
    counts in C, so the number is the ``call`` + ``c_call`` event count at
    a fraction of a Python callback's cost. It repeats exactly.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return int(sum(entry.callcount for entry in prof.getstats()))


def _contiguous(idx: np.ndarray) -> bool:
    return int(idx[-1]) - int(idx[0]) + 1 == idx.shape[0]


def replay_ops(structure) -> list:
    """The sequential task list as ``(kind, m, n, k, scatter)`` tuples.

    ``scatter`` marks a BMOD whose destination window is not one contiguous
    slab, i.e. one that ``BlockCholesky.bmod`` sends down the ``np.ix_``
    path instead of the fused in-place dgemm.
    """
    part = structure.partition
    ptr = part.panel_ptr
    widths = np.asarray(part.widths, dtype=np.int64)
    ops = []
    for k in range(part.npanels):
        w = int(widths[k])
        ops.append(("bfac", w, w, w, False))
        brows = structure.block_rows[k]
        spans = [structure.block_row_span(k, t) for t in range(brows.shape[0])]
        for rows in spans:
            ops.append(("bdiv", rows.shape[0], w, w, False))
        for a, rows_i in enumerate(spans):
            i = int(brows[a])
            for b in range(a + 1):
                j = int(brows[b])
                cols = spans[b] - int(ptr[j])
                if i == j:
                    ridx = rows_i - int(ptr[j])
                else:
                    ridx = np.searchsorted(structure.rows_below[j], rows_i)
                whole_rows = cols.shape[0] == int(widths[j])
                slab = (
                    _contiguous(ridx)
                    and _contiguous(cols)
                    and (whole_rows or ridx.shape[0] == 1)
                )
                ops.append(
                    ("bmod", rows_i.shape[0], spans[b].shape[0], w, not slab)
                )
    return ops


def make_replay(ops, rng):
    """Bind each op to a kernel call on operands of its shapes; returns a
    zero-argument function that runs the whole list through
    ``dense_kernels`` and nothing else."""
    from repro.numeric.dense_kernels import (
        bdiv_kernel,
        bfac_kernel,
        bmod_kernel,
        bmod_kernel_into,
    )

    arrays: dict = {}

    def dense(rows, cols):
        if (rows, cols) not in arrays:
            arrays[rows, cols] = rng.standard_normal((rows, cols))
        return arrays[rows, cols]

    spd: dict = {}
    eye: dict = {}
    outs: dict = {}
    calls = []
    for kind, m, n, k, scatter in ops:
        if kind == "bfac":
            if k not in spd:
                spd[k] = np.eye(k) * (k + 1.0) + 0.5
                eye[k] = np.eye(k)
            D0 = spd[k]
            # bfac_kernel consumes its operand: hand it a fresh copy.
            calls.append((lambda D0, _b, _c: bfac_kernel(D0.copy()), D0, None, None))
        elif kind == "bdiv":
            # An identity diagonal leaves the block unchanged, so the
            # consumed operand can be reused call after call.
            calls.append((lambda B, Lkk, _c: bdiv_kernel(B, Lkk), dense(m, k), eye[k], None))
        elif scatter:
            calls.append((lambda a, b, _c: bmod_kernel(a, b), dense(m, k), dense(n, k), None))
        else:
            if (m, n) not in outs:
                outs[m, n] = np.zeros((m, n))
            calls.append((bmod_kernel_into, dense(m, k), dense(n, k), outs[m, n]))

    def replay():
        for fn, a, b, c in calls:
            fn(a, b, c)

    return replay


class LayerPass:
    """One workload's traced pass. Each method measures one group of layers
    and leaves what later groups need (structures, the sequential factor)
    on ``self``; :meth:`run` calls them in the order a job meets them."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 smoke: bool):
        self.smoke = smoke
        #: Samples per layer call; the costlier calls get one fewer, and
        #: the runtime variants, compared by difference, one more.
        self.k = 1 if smoke else max(1, min(3, int(seconds // 10)))
        self.k_few = 1 if smoke else max(1, self.k - 1)
        self.k_rt = 1 if smoke else self.k + 1
        self.cal = Calibrator(retake_budget=0 if smoke else 8)
        self.spans = SpanRecorder()
        self.ledger = checks.Ledger()
        stream = ValueStream(workload.pattern(smoke), seed)
        self.A = stream.next_matrix()
        self.B = stream.B
        self.norm_a = checks.inf_norm(self.A)
        self.rng = np.random.default_rng(1)
        self.m: dict = {}

    # -- helpers ---------------------------------------------------------
    def sample(self, name, fn, retake=True):
        """One probe-bracketed sample of ``fn`` inside a span."""
        return self.cal.sample(lambda: self.spans.run(name, fn), retake=retake)

    def timed(self, name, fn, n=None):
        """Median calibrated seconds of ``n`` samples of ``fn`` and the
        last sample's result."""
        got = [self.sample(name, fn) for _ in range(n or self.k)]
        return median([s.cal_s for s in got]), got[-1].result

    def residual_op(self, name, x):
        self.ledger.op(name, lambda: (True, checks.residual_problems(
            self.A, x, self.B, self.norm_a
        )))

    def run(self) -> dict:
        self.spans.run("layers", self._all)
        m = self.m
        m["calib.slowdown"] = self.cal.slowdown
        m["calib.cv"] = self.cal.cv
        m["calib.samples_retaken"] = self.cal.samples_retaken
        out = {
            "metrics": {
                name: {"value": m[name], "unit": PER_LAYER[name][0]}
                for name in PER_LAYER
            },
            "spans": self.spans.summary(),
        }
        out.update(self.ledger.to_dict())
        return out

    def _all(self):
        self.analysis()
        self.sequential_numeric()
        self.kernels()
        self.solve_and_yardsticks()
        self.runtime()
        self.wire_and_arena()
        self.service()
        self.simulator()

    # -- ordering, symbolic, blocking, planning --------------------------
    def analysis(self):
        from repro.analysis.blocking import blocking_report
        from repro.blocks import BlockStructure, WorkModel, make_partition
        from repro.fanout import TaskGraph
        from repro.mapping.balance import overall_balance_from_owners
        from repro.runtime import plan_owners
        from repro.solver import SparseCholesky
        from repro.symbolic import symbolic_factor

        m, A = self.m, self.A

        def order():
            return SparseCholesky._resolve_ordering(A, "auto")

        m["ordering.order_s"], perm = self.timed("ordering.order", order)
        m["ordering.py_calls"] = count_calls(order)

        def symbolic():
            return symbolic_factor(A, perm)

        m["symbolic.factor_s"], sf = self.timed("symbolic.factor", symbolic)
        m["symbolic.py_calls"] = count_calls(symbolic)
        m["symbolic.nnz_l"] = int(sf.factor_nnz)
        m["symbolic.factor_mflop"] = sf.factor_ops / 1e6

        def partition():
            st = BlockStructure(make_partition(
                sf, block_policy="uniform", block_size=BLOCK_SIZE
            ))
            return st, WorkModel(st)

        m["blocks.partition_s"], (st, wm) = self.timed(
            "blocks.partition", partition
        )
        m["fanout.taskgraph_s"], tg = self.timed(
            "fanout.taskgraph", lambda: TaskGraph(wm)
        )
        m["mapping.plan_owners_s"], (owners, mapname) = self.timed(
            "mapping.plan_owners",
            lambda: plan_owners(wm, tg, NPROCS, MAPPING),
        )
        report = blocking_report(tg)
        m["blocks.npanels"] = report["npanels"]
        m["blocks.median_tile_mn"] = report["tiles"]["median_tile_mn"]
        m["blocks.arena_padding_pct"] = report["arena"]["padding_pct"]
        m["fanout.ntasks"] = int(tg.ntasks)
        cyclic, _ = plan_owners(wm, tg, NPROCS, "cyclic")
        for key, own in (("dw", owners), ("cyclic", cyclic)):
            m[f"mapping.work_imbalance_{key}"] = (
                1.0 / overall_balance_from_owners(wm, own, NPROCS)
            )
        self.analyse_s = (
            m["ordering.order_s"] + m["symbolic.factor_s"]
            + m["blocks.partition_s"]
        )

        self.facade = self.spans.run("facade.analyse", lambda: SparseCholesky(
            A, block_size=BLOCK_SIZE, nprocs=NPROCS
        ))
        self.ledger.op("ordering.perm_matches_facade", lambda: (True, (
            [] if np.array_equal(
                sf.ordering.perm, self.facade.symbolic.ordering.perm
            ) else ["harness permutation differs from the facade's"]
        )))
        self.sf, self.st, self.wm, self.tg = sf, st, wm, tg
        self.owners, self.mapname = owners, mapname

    # -- BlockCholesky: scatter, numeric, extraction -----------------------
    def sequential_numeric(self):
        from repro.numeric import BlockCholesky

        m, st, A_perm = self.m, self.st, self.sf.A
        init_s, fact_s, csc_s = [], [], []
        for _ in range(self.k):
            s = self.sample("blockfact.init", lambda: BlockCholesky(st, A_perm))
            init_s.append(s.cal_s)
            chol = s.result
            # factor() consumes the scattered blocks: one sample per init.
            fact_s.append(
                self.sample("blockfact.factor", chol.factor, retake=False).cal_s
            )
            s = self.sample("blockfact.to_csc", chol.to_csc)
            csc_s.append(s.cal_s)
        self.chol, self.L_seq = chol, s.result
        m["blockfact.init_s"] = median(init_s)
        m["blockfact.factor_s"] = median(fact_s)
        m["blockfact.to_csc_s"] = median(csc_s)
        self.seq_numeric_s = (
            m["blockfact.init_s"] + m["blockfact.factor_s"]
            + m["blockfact.to_csc_s"]
        )
        m["blockfact.init_py_calls"] = count_calls(
            lambda: BlockCholesky(st, A_perm)
        )
        m["blockfact.factor_py_calls"] = count_calls(
            BlockCholesky(st, A_perm).factor
        )
        self.ops = replay_ops(st)
        replay = make_replay(self.ops, np.random.default_rng(0))
        replay()
        m["blockfact.kernel_replay_s"], _ = self.timed("kernels.replay", replay)
        m["blockfact.overhead_frac"] = (
            1.0 - m["blockfact.kernel_replay_s"] / m["blockfact.factor_s"]
        )
        bmods = [op for op in self.ops if op[0] == "bmod"]
        m["blockfact.bmod_scatter_frac"] = (
            sum(op[4] for op in bmods) / len(bmods) if bmods else 0.0
        )

    # -- dense kernels at the workload's median shapes ---------------------
    def kernels(self):
        from repro.blocks.workmodel import chol_flops
        from repro.numeric import dense_kernels as dk

        m, rng = self.m, self.rng

        def rate(name, fn, flops, target_s=0.01):
            """Gflop/s of ``fn``: each sample loops enough calls to last
            about ``target_s``; calibrated like every other time."""
            fn()  # first call pays one-off costs
            t0 = time.perf_counter()
            fn()
            reps = max(1, int(target_s / max(time.perf_counter() - t0, 1e-7)))

            def loop():
                for _ in range(reps):
                    fn()

            secs, _ = self.timed(name, loop)
            return flops * reps / secs / 1e9

        def med(kind, field):
            got = [op[field] for op in self.ops if op[0] == kind]
            return int(np.median(got)) if got else w

        w = int(np.median(self.st.partition.widths))
        r = med("bdiv", 1)
        bm, bn, bk = med("bmod", 1), med("bmod", 2), med("bmod", 3)
        D0 = np.eye(w) * (w + 1.0) + 0.5
        blk, eye = rng.standard_normal((r, w)), np.eye(w)
        a_, b_ = rng.standard_normal((bm, bk)), rng.standard_normal((bn, bk))
        out_ = np.zeros((bm, bn))
        m["kernels.bfac_gflops"] = rate(
            "kernels.bfac", lambda: dk.bfac_kernel(D0.copy()), chol_flops(w)
        )
        m["kernels.bdiv_gflops"] = rate(
            "kernels.bdiv", lambda: dk.bdiv_kernel(blk, eye), r * w * w
        )
        m["kernels.bmod_gflops"] = rate(
            "kernels.bmod", lambda: dk.bmod_kernel_into(a_, b_, out_),
            2 * bm * bn * bk,
        )
        side = 128 if self.smoke else 512
        X = rng.standard_normal((side, side))
        Y = rng.standard_normal((side, side))
        m["kernels.dgemm_peak_gflops"] = rate(
            "kernels.dgemm_peak", lambda: X @ Y, 2 * side ** 3, target_s=0.03
        )

    # -- solve, the threads backend, the external yardstick ----------------
    def solve_and_yardsticks(self):
        from scipy.sparse.linalg import splu

        from repro.numeric import solve_with_factor
        from repro.numeric.parallel import parallel_block_cholesky

        m, A, B, sf = self.m, self.A, self.B, self.sf

        def solve():
            return solve_with_factor(self.chol, B, sf.ordering)

        m["solve.block_solve_s"], x = self.timed("solve.block_solve", solve)
        m["solve.py_calls"] = count_calls(solve)
        self.residual_op("solve.block_solve", x)
        m["parallel.threads_factor_s"], thr = self.timed(
            "parallel.threads_factor",
            lambda: parallel_block_cholesky(
                self.st, sf.A, self.tg, nthreads=NPROCS
            ),
            n=self.k_few,
        )
        self.residual_op(
            "parallel.threads_factor",
            solve_with_factor(thr.factor, B, sf.ordering),
        )
        m["ref.splu_s"], x_lu = self.timed(
            "ref.splu", lambda: splu(A).solve(B)
        )
        self.residual_op("ref.splu", x_lu)
        m["ref.seq_over_splu"] = (
            self.analyse_s + self.seq_numeric_s + m["solve.block_solve_s"]
        ) / m["ref.splu_s"]

    # -- one-shot mp runtime, timed outside the call -----------------------
    def runtime(self):
        from repro.analysis import communication_volume
        from repro.analysis.comm_volume import solve_communication_volume
        from repro.runtime import plan_owners, run_mp_fanout

        m, sf, tg, B = self.m, self.sf, self.tg, self.B
        predicted = communication_volume(tg, self.owners)
        owners1, _ = plan_owners(self.wm, tg, 1, MAPPING)
        pB = np.ascontiguousarray(B[sf.ordering.perm])
        variants = {
            "runtime.shm": {},
            "runtime.traced": {"trace": True},
            "runtime.factor_solve": {"rhs": pB},
            "runtime.inline": {"transport": "inline"},
            "runtime.dynamic": {"schedule": "dynamic"},
            "runtime.p1": {"nprocs": 1, "owners": owners1},
        }

        def fanout(nprocs=NPROCS, owners=self.owners, **kw):
            return run_mp_fanout(
                self.st, sf.A, tg, owners, nprocs, mapping=self.mapname, **kw
            )

        def checked(res):
            problems = checks.bitwise_problems(res.to_csc(), self.L_seq)
            if res.metrics.nprocs == NPROCS:
                problems += checks.traffic_problems(
                    res.metrics.messages_total, res.metrics.bytes_total,
                    predicted,
                )
            return res, problems

        # The first launch in a process is slower than the rest; the
        # variants are then interleaved so that drift hits all alike and
        # differences are taken between neighbours.
        self.spans.run("runtime.warmup", fanout)
        runs: dict = {name: [] for name in variants}
        for _ in range(self.k_rt):
            for name, kw in variants.items():
                s = self.sample(name, lambda: fanout(**kw))
                self.ledger.op(name, lambda: checked(s.result))
                runs[name].append(s)

        def outer_s(name):
            return median([s.cal_s for s in runs[name]])

        def paired(name, combine):
            return median([
                combine(s.cal_s, base.cal_s)
                for s, base in zip(runs[name], runs["runtime.shm"])
            ])

        outer = outer_s("runtime.shm")
        last = runs["runtime.shm"][-1]
        rm = last.result.metrics
        m["runtime.shm_outer_s"] = outer
        # Worker-side clocks are raw; put them on the calibrated scale of
        # the run they came from.
        to_cal = last.cal_s / last.raw_s
        spent = [w.busy_s + w.comm_s + w.idle_s for w in rm.workers]
        m["runtime.shm_wall_s"] = rm.wall_s * to_cal
        m["runtime.outside_wall_s"] = (last.raw_s - rm.wall_s) * to_cal
        m["runtime.unaccounted_s"] = (rm.wall_s - max(spent)) * to_cal
        m["runtime.busy_max_s"] = float(rm.busy.max()) * to_cal
        m["runtime.busy_sum_s"] = float(rm.busy.sum()) * to_cal
        m["runtime.idle_sum_s"] = rm.idle_total_s * to_cal
        m["runtime.comm_sum_s"] = sum(w.comm_s for w in rm.workers) * to_cal
        m["runtime.measured_balance"] = rm.measured_balance
        m["runtime.messages"] = rm.messages_total
        m["runtime.bytes"] = rm.bytes_total
        m["runtime.wire_bytes"] = rm.wire_bytes_total

        m["runtime.traced_outer_s"] = outer_s("runtime.traced")
        m["runtime.trace_overhead_frac"] = paired(
            "runtime.traced", lambda t, base: t / base - 1.0
        )
        m["runtime.trace_events"] = int(sum(
            w.trace_events
            for w in runs["runtime.traced"][-1].result.metrics.workers
        ))
        m["runtime.inline_outer_s"] = outer_s("runtime.inline")
        m["runtime.dynamic_outer_s"] = outer_s("runtime.dynamic")
        m["runtime.tasks_stolen"] = (
            runs["runtime.dynamic"][-1].result.metrics.tasks_stolen_total
        )
        m["runtime.p1_outer_s"] = outer_s("runtime.p1")
        m["runtime.scaling_eff_p2"] = m["runtime.p1_outer_s"] / (NPROCS * outer)
        m["runtime.speedup_vs_seq"] = self.seq_numeric_s / outer
        m["runtime.solve_phase_s"] = paired(
            "runtime.factor_solve", lambda t, base: t - base
        )
        sres = runs["runtime.factor_solve"][-1].result
        m["runtime.solve_messages"] = sres.metrics.solve_messages_total
        m["runtime.solve_bytes"] = sres.metrics.solve_bytes_total

        def solve_phase():
            z = np.empty_like(sres.solution)
            z[sf.ordering.perm] = sres.solution
            problems = checks.residual_problems(self.A, z, B, self.norm_a)
            problems += checks.traffic_problems(
                sres.metrics.solve_messages_total,
                sres.metrics.solve_bytes_total,
                solve_communication_volume(tg, self.owners, nrhs=B.shape[1]),
            )
            return True, problems

        self.ledger.op("runtime.solve_phase", solve_phase)

    # -- wire and arena at the median block shape --------------------------
    def wire_and_arena(self):
        from repro.runtime import BlockArena, wire

        m, tg = self.m, self.tg
        sub = np.flatnonzero(tg.block_I != tg.block_J)
        words = tg.block_words[sub]
        blk = int(sub[np.argsort(words, kind="stable")[words.size // 2]])
        bI, bJ = int(tg.block_I[blk]), int(tg.block_J[blk])
        cols = int(self.st.partition.widths[bJ])
        payload = self.rng.standard_normal(
            (int(tg.block_words[blk]) // cols, cols)
        )
        reps = 20 if self.smoke else 200

        def pack_unpack():
            for _ in range(reps):
                wire.unpack(wire.pack_block(0, blk, bI, bJ, payload))

        secs, _ = self.timed("wire.pack_unpack", pack_unpack)
        m["wire.pack_unpack_us"] = secs / reps * 1e6
        arena = BlockArena.create(tg)
        try:
            def write_resolve():
                for _ in range(reps):
                    arena.write(blk, payload)
                    arena.resolve(wire.unpack(arena.pack_ref(0, blk)))

            secs, _ = self.timed("arena.write_resolve", write_resolve)
        finally:
            arena.destroy()
        m["arena.write_resolve_us"] = secs / reps * 1e6

    # -- the service, job by job -------------------------------------------
    def service(self):
        from repro.service import FactorService, ServiceClient, ServiceServer

        m, A, B = self.m, self.A, self.B

        def job(name, submit, check):
            """One checked, un-retaken service call; returns its sample."""
            def op():
                s = self.sample(name, submit, retake=False)
                return s, check(s.result)
            return self.ledger.op(name, op)

        def factor_check(res):
            return (checks.record_problems(res.record)
                    + checks.bitwise_problems(res.L, self.L_seq))

        def solve_check(res):
            return (checks.record_problems(res.record)
                    + checks.residual_problems(A, res.x, B, self.norm_a))

        svc = FactorService(nprocs=NPROCS, block_size=BLOCK_SIZE, trace=True)
        server = None
        try:
            m["service.start_s"], _ = self.timed("service.start", svc.start, n=1)
            cold = job("service.cold_factor", lambda: svc.factor(A),
                       factor_check)
            m["service.cold_factor_s"] = cold.cal_s
            pid = cold.result.pattern_id

            def warm():
                return svc.factor(pattern_id=pid, values=A.data)

            factors, solves, records = [], [], []
            for _ in range(2 * self.k):
                s = job("service.warm_factor", warm, factor_check)
                factors.append(s.cal_s)
                records.append((s.result.record, s.cal_s / s.raw_s))
                solves += [
                    job("service.warm_solve", lambda: svc.solve(B, pid),
                        solve_check).cal_s
                    for _ in range(2)
                ]

            def rec(field):
                return median([getattr(r, field) * c for r, c in records])

            m["service.queue_wait_s"] = rec("queue_wait_s")
            m["service.job_run_s"] = rec("run_s")
            m["service.job_assemble_s"] = rec("assemble_s")
            # What a warm job spends outside queue, run and assembly:
            # resolving the pattern, permuting the values, building specs.
            m["service.job_setup_s"] = median([
                (r.e2e_s - r.queue_wait_s - r.run_s - r.assemble_s) * c
                for r, c in records
            ])
            m["service.factor_max_s"] = max(factors)
            m["service.solve_p75_s"] = percentile(solves, 75)
            m["service.factor_over_seq"] = median(factors) / self.seq_numeric_s
            m["service.solve_over_seq"] = (
                median(solves) / m["solve.block_solve_s"]
            )

            # Two bursts of four concurrent submits: the batching path.
            def burst():
                handles = [
                    svc.submit(pattern_id=pid, values=A.data)
                    for _ in range(4)
                ]
                return [h.result(120.0) for h in handles]

            def burst_check(results):
                return [p for res in results for p in factor_check(res)]

            bursts = [
                job("service.burst4", burst, burst_check) for _ in range(2)
            ]
            m["service.burst4_jobs_per_s"] = median(
                [4.0 / s.cal_s for s in bursts]
            )
            m["service.burst4_batch_size"] = median([
                res.record.batch_size for s in bursts for res in s.result
            ])

            server = ServiceServer(svc).start_background()
            with ServiceClient(address=server.address) as client:
                m["service.tcp_factor_s"] = median([
                    job(
                        "service.tcp_factor",
                        lambda: client.factor(pattern_id=pid, values=A.data),
                        factor_check,
                    ).cal_s
                    for _ in range(self.k_few)
                ])
            stats = svc.cache.stats()
            m["service.cache_hits"] = stats["hits"]
            m["service.cache_misses"] = stats["misses"]
        finally:
            if server is not None:
                server.close()
            svc.close()

    # -- the paper's headline, from the simulator --------------------------
    def simulator(self):
        m = self.m
        m["sim.plan_parallel_s"], heur = self.timed(
            "sim.plan_parallel", lambda: self.facade.plan_parallel(64),
            n=self.k_few,
        )
        m["sim.efficiency_p64_heur"] = heur.efficiency
        m["sim.efficiency_p64_cyclic"] = self.facade.plan_parallel(
            64, "cyclic"
        ).efficiency


def run_layers(workload: Workload, seed: int, seconds: float,
               smoke: bool) -> dict:
    """Measure every per-layer metric of ``workload``; returns the child's
    result fields (metrics, op counts, span summary)."""
    return LayerPass(workload, seed, seconds, smoke).run()
