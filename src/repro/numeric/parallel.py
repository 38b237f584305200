"""Real shared-memory parallel block Cholesky (thread pool).

The simulator answers "what would the Paragon do"; this module actually
runs the same task DAG in parallel on the host: a dependency-driven
executor dispatches BFAC/BDIV tasks and panel updates to a thread pool as
their inputs complete. numpy's BLAS kernels release the GIL, so genuine
multicore speedups are achievable for matrices with enough block-level
concurrency — the shared-memory analogue of the paper's message-passing
method, with the same dependency structure the tests already proved
correct.

With one shared memory every update from panel K into panel J is one panel
update, as in the sequential factor, and the updates into a panel run in
ascending K, so the factor is bitwise the sequential one. One lock per
destination panel lets a single thread at a time write its slab (the role
the owning processor plays in the distributed method).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.blocks.structure import BlockStructure
from repro.fanout.dispatch import PanelUpdates, UpdateQueue
from repro.fanout.protocol import FanoutState
from repro.fanout.tasks import BDIV, BMOD, TaskGraph
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
    block reaches all its consumers at once. A pool item is a BFAC / BDIV
    task id, or ``ntasks + op`` for panel update ``op``.
    """
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    chol = BlockCholesky(structure, A)
    state = FanoutState(tg)
    updates = PanelUpdates(tg, np.ones(tg.ntasks, dtype=bool))
    queue = UpdateQueue(updates)
    ntasks = tg.ntasks

    state_lock = threading.Lock()
    panel_locks = [threading.Lock() for _ in range(tg.npanels)]
    done = threading.Event()
    error: list[BaseException] = []
    remaining = [tg.ntasks]

    pool = ThreadPoolExecutor(max_workers=nthreads)

    def release(tid: int | None) -> int | None:
        """The pool item a task the protocol released makes runnable."""
        if tid is None or tg.task_kind[tid] != BMOD:
            return tid
        op = queue.ready(tid)
        return None if op is None else ntasks + op

    def run(item: int) -> None:
        if error:
            return
        try:
            if item >= ntasks:
                K, J, rows, tids, blocks, *_ = updates.ops[item - ntasks]
                with panel_locks[J]:
                    chol.pmod(K, J, rows)
                with state_lock:
                    ready = [state.mod_finished(b) for b in blocks]
                    nxt = queue.finished(item - ntasks)
                    ready.append(None if nxt is None else ntasks + nxt)
                    retire(len(tids))
            else:
                b = int(tg.task_block[item])
                I, J = int(tg.block_I[b]), int(tg.block_J[b])
                with panel_locks[J]:
                    if tg.task_kind[item] == BDIV:
                        chol.bdiv(I, J)
                    else:
                        chol.bfac(J)
                with state_lock:
                    ready = [
                        release(state.delivered(b, int(c)))
                        for c in state.consumers(b)[0]
                    ]
                    retire(1)
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            error.append(exc)
            done.set()
            return
        for t in ready:
            if t is not None:
                pool.submit(run, t)

    def retire(n: int) -> None:
        """``n`` tasks of the graph ran (call under ``state_lock``)."""
        remaining[0] -= n
        if remaining[0] == 0:
            done.set()

    for tid in state.seeds():
        pool.submit(run, int(tid))

    done.wait()
    pool.shutdown(wait=True)
    if error:
        raise error[0]
    return ParallelFactorResult(
        factor=chol, nthreads=nthreads, tasks_executed=tg.ntasks
    )
