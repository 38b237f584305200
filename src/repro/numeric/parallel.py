"""Real shared-memory parallel block Cholesky (thread pool).

The simulator answers "what would the Paragon do"; this module actually
runs the same task DAG in parallel on the host: a dependency-driven
executor dispatches BFAC/BDIV/BMOD tasks to a thread pool as their inputs
complete. numpy's BLAS kernels release the GIL, so genuine multicore
speedups are achievable for matrices with enough block-level concurrency —
the shared-memory analogue of the paper's message-passing method, with the
same dependency structure the tests already proved correct.

Per-destination-block locks serialize BMODs into the same block (the role
the owning processor plays in the distributed method).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.protocol import FanoutState
from repro.fanout.tasks import BMOD, TaskGraph
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

    The dependency protocol is the fan-out method's
    (:mod:`repro.fanout.protocol`); with one shared memory, a finished
    block reaches all its consumers at once.
    """
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    chol = BlockCholesky(structure, A)

    state = FanoutState(tg)

    state_lock = threading.Lock()
    block_locks = [threading.Lock() for _ in range(tg.nblocks)]
    done = threading.Event()
    error: list[BaseException] = []
    remaining = [tg.ntasks]
    executed = [0]

    pool = ThreadPoolExecutor(max_workers=nthreads)

    def submit(tid: int) -> None:
        pool.submit(run_task, tid)

    def run_task(tid: int) -> None:
        if error:
            _finish_one()
            return
        try:
            b = int(tg.task_block[tid])
            with block_locks[b]:
                chol.apply_task(tg, tid)
            after_completion(tid, b)
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            error.append(exc)
            done.set()
            return
        _finish_one()

    def _finish_one() -> None:
        with state_lock:
            remaining[0] -= 1
            executed[0] += 1
            if remaining[0] == 0:
                done.set()

    def after_completion(tid: int, b: int) -> None:
        with state_lock:
            if tg.task_kind[tid] == BMOD:
                ready = [state.mod_finished(b)]
            else:  # BFAC / BDIV: block b is final
                ready = [
                    state.delivered(b, int(c)) for c in state.consumers(b)[0]
                ]
        for t in ready:
            if t is not None:
                submit(t)

    for tid in state.seeds():
        submit(int(tid))

    done.wait()
    pool.shutdown(wait=True)
    if error:
        raise error[0]
    if remaining[0] != 0:
        raise RuntimeError("parallel factorization deadlocked")
    return ParallelFactorResult(
        factor=chol, nthreads=nthreads, tasks_executed=executed[0]
    )
