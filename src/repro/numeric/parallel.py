"""Real shared-memory parallel block Cholesky (thread pool).

The simulator answers "what would the Paragon do"; this module runs the
same dependency structure on the host: panel factors and panel updates go
to a thread pool as their inputs complete (numpy's BLAS kernels release
the GIL). With one shared memory every block is at hand: one panel factor
per column and one panel update per (K, J), as in the sequential factor.
Each panel's chain runs its updates in ascending K, each once panel K is
factored, and its panel factor last, one op at a time, so the factor is
bitwise the sequential one and no two threads ever write one panel's slab
at once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from scipy import sparse

from repro.blocks.structure import BlockStructure
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
    """Factor ``A`` with ``nthreads`` worker threads. A pool item is
    ``(k, -1)``, PFAC(k), or ``(k, j)``, PMOD(k, j)."""
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    chol = BlockCholesky(structure, A)
    spans = structure.numeric_plan().spans
    # Per panel J, the panels that update it, ascending: its chain.
    chain: list[list[int]] = [[] for _ in spans]
    for k, span in enumerate(spans):
        for j in span:
            chain[j].append(k)
    applied, factored = [0] * len(spans), [False] * len(spans)
    state_lock, done = threading.Lock(), threading.Event()
    error: list[BaseException] = []
    remaining = [len(spans)]
    pool = ThreadPoolExecutor(max_workers=nthreads)

    def run(k: int, j: int) -> None:
        """PFAC(k) when ``j < 0``, else PMOD(k, j); then submit what that
        released."""
        if error:
            return
        try:
            if j < 0:
                chol.pfac(k)
            else:
                end = len(chol.diag[k]) + len(chol.stacked[k])
                chol.pmod(k, j, slice(spans[k][j][0], end))
            with state_lock:
                if j < 0:
                    factored[k] = True
                    remaining[0] -= 1
                    ops = [(k, i) for i in spans[k]
                           if chain[i][applied[i]] == k]
                else:
                    applied[j] += 1
                    nxt = chain[j][applied[j]:applied[j] + 1]
                    ops = ([(j, -1)] if not nxt else
                           [(nxt[0], j)] if factored[nxt[0]] else [])
                for op in ops:
                    pool.submit(run, *op)
                if not remaining[0]:
                    done.set()
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            error.append(exc)
            done.set()

    for k, into in enumerate(chain):
        if not into:
            pool.submit(run, k, -1)
    done.wait()
    pool.shutdown(wait=True)
    if error:
        raise error[0]
    return ParallelFactorResult(factor=chol, nthreads=nthreads,
                                tasks_executed=tg.ntasks)
