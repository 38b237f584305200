"""Real shared-memory parallel block Cholesky (thread pool).

The simulator answers "what would the Paragon do"; this module actually
runs the same task DAG in parallel on the host: a dependency-driven
executor dispatches panel factors and panel updates to a thread pool as
their inputs complete. numpy's BLAS kernels release the GIL, so genuine
multicore speedups are achievable for matrices with enough block-level
concurrency — the shared-memory analogue of the paper's message-passing
method, with the same dependency structure the tests already proved
correct.

With one shared memory a single rank owns every block: one panel factor
per column and one panel update per (K, J), as in the sequential factor,
released by the one-rank :class:`~repro.fanout.dispatch.DispatchPlan`'s
share counters. Each panel's chain runs its updates in ascending K and its
panel factor last, one op at a time, so the factor is bitwise the
sequential one and no two threads ever write one panel's slab at once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.dispatch import DispatchPlan, Readiness
from repro.fanout.tasks import TaskGraph
from repro.numeric.blockfact import BlockCholesky


@dataclass
class ParallelFactorResult:
    factor: BlockCholesky
    nthreads: int
    tasks_executed: int

    def to_csc(self) -> sparse.csc_matrix:
        return self.factor.to_csc()


def parallel_block_cholesky(
    structure: BlockStructure,
    A: sparse.spmatrix,
    tg: TaskGraph,
    nthreads: int = 4,
) -> ParallelFactorResult:
    """Factor ``A`` with ``nthreads`` worker threads over the task DAG.

    The dependency protocol is the fan-out method's, coarsened to panels
    (:mod:`repro.fanout.dispatch`); with one shared memory, a finished
    panel reaches all its consumers at once. A pool item is an op of the
    one-rank plan.
    """
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    chol = BlockCholesky(structure, A)
    plan = DispatchPlan(tg, np.zeros(tg.nblocks, dtype=np.int64), 0)
    nu = plan.nupdates

    state_lock = threading.Lock()
    done = threading.Event()
    error: list[BaseException] = []
    remaining = [nu + len(plan.factors)]

    pool = ThreadPoolExecutor(max_workers=nthreads)

    def run(o: int) -> None:
        if error:
            return
        try:
            if o < nu:
                K, J, rows, *_ = plan.updates.ops[o]
                chol.pmod(K, J, rows)
            else:
                K, rows, *_ = plan.factors[o - nu]
                chol.pfac(K, rows)
            with state_lock:
                ready.finished(o)
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            error.append(exc)
            done.set()

    with state_lock:
        ready = Readiness(plan, lambda o: pool.submit(run, o))

    done.wait()
    pool.shutdown(wait=True)
    if error:
        raise error[0]
    return ParallelFactorResult(
        factor=chol, nthreads=nthreads, tasks_executed=tg.ntasks
    )
