"""Shared fixtures: small problems with the full pipeline prepared."""

from __future__ import annotations

import gc
import glob
import multiprocessing as mp
import os

# One BLAS thread per process, set before numpy loads its BLAS: the mp
# suites run P workers on a 2-CPU box, and P multithreaded BLAS pools
# spinning on 2 cores slow every tile kernel 20-40x, which is what makes
# the timing-sensitive recovery tests flaky. Workers inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.blocks.variable import VariableBlockPartition, stage_varying_policy
from repro.fanout import TaskGraph
from repro.matrices import grid2d_matrix, random_spd_sparse
from repro.ordering import order_problem
from repro.symbolic import supernode_parents, symbolic_factor, tree_depths

#: Suites that create worker processes and shared-memory arenas.
_PROCESS_SUITES = ("test_runtime_", "test_service")


@pytest.fixture(autouse=True)
def no_leaked_workers_or_shm(request):
    """After every runtime/service test — passed or failed, returned or
    raised — no child process is alive and no ``/dev/shm/psm_*`` segment
    is left behind."""
    module = request.module.__name__.rpartition(".")[2]
    if not module.startswith(_PROCESS_SUITES):
        yield
        return
    before = set(glob.glob("/dev/shm/psm_*"))
    yield
    if mp.active_children():
        # An unreachable SparseCholesky releases its crew when collected;
        # `pytest.raises(...) as err` makes it a cycle, so collect now.
        gc.collect()
    for p in mp.active_children():
        p.join(timeout=5)
    orphans = [p.name for p in mp.active_children() if p.is_alive()]
    assert not orphans, f"orphan worker processes: {orphans}"
    leaked = sorted(set(glob.glob("/dev/shm/psm_*")) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def variable_partition(sf, block_size=8):
    """§5's stage-varying B, set so that the widths really vary: ``2 *
    block_size`` for the supernodes eliminated first (in the supernode
    tree, at least as deep as the median column's supernode),
    ``block_size // 2`` for those nearer the root."""
    depths = tree_depths(supernode_parents(sf.snode_ptr, sf.parent))
    column_depths = np.repeat(depths, np.diff(sf.snode_ptr))
    cutoff = int(np.median(column_depths)) - 1 if depths.size else 0
    return VariableBlockPartition(sf, stage_varying_policy(
        2 * block_size, max(1, block_size // 2), cutoff
    ))


#: The two ways a suite cuts panels, by test id: the paper's one B, and a
#: B chosen per supernode.
PARTITIONS = {"uniform": BlockPartition, "supernodal": variable_partition}


@pytest.fixture(scope="session")
def grid12_pipeline():
    """A 12x12 grid problem, fully prepared with B=8."""
    problem = grid2d_matrix(12)
    sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
    part = BlockPartition(sf, 8)
    structure = BlockStructure(part)
    wm = WorkModel(structure)
    tg = TaskGraph(wm)
    return problem, sf, part, structure, wm, tg


@pytest.fixture(scope="session")
def random_spd_pipeline():
    """An irregular random SPD problem (n=150), MMD-ordered, B=6."""
    from repro.matrices.problem import ProblemMatrix

    A = random_spd_sparse(150, density=0.04, seed=7)
    problem = ProblemMatrix("RAND150", A, recommended_ordering="mmd")
    sf = symbolic_factor(problem.A, order_problem(problem, "mmd"))
    part = BlockPartition(sf, 6)
    structure = BlockStructure(part)
    wm = WorkModel(structure)
    tg = TaskGraph(wm)
    return problem, sf, part, structure, wm, tg


def validate_task_graph(tg):
    """Internal consistency of a ``TaskGraph``: one BMOD per ``nmod`` count,
    one BFAC per diagonal block, one BDIV per subdiagonal block."""
    from repro.fanout.tasks import BMOD

    mod_counts = np.bincount(
        tg.task_block[tg.task_kind == BMOD], minlength=tg.nblocks
    )
    if not np.array_equal(mod_counts, tg.nmod):
        raise AssertionError("BMOD task count disagrees with WorkModel.nmod")
    diag = tg.block_I == tg.block_J
    if not (tg.bfac_task[diag] >= 0).all():
        raise AssertionError("missing BFAC task for a diagonal block")
    if not (tg.bdiv_task[~diag] >= 0).all():
        raise AssertionError("missing BDIV task for a subdiagonal block")


def dense_cholesky_reference(A):
    """Dense lower Cholesky of a (sparse or dense) SPD matrix."""
    Ad = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    return np.linalg.cholesky(Ad)


def mp_fanout(structure, A, tg, nprocs, mapping="DW/CY", **kwargs):
    """``run_mp_fanout`` on the block map ``plan_owners`` plans for
    ``mapping``; ``kwargs`` are its other arguments and knobs."""
    from repro.runtime import plan_owners, run_mp_fanout

    owners, name = plan_owners(tg.workmodel, tg, nprocs, mapping)
    return run_mp_fanout(structure, A, tg, owners, nprocs, mapping=name,
                         **kwargs)


def facade_job(A, **knobs):
    """One fault-tolerant factor job of the already permuted ``A`` through
    ``SparseCholesky(backend="mp")`` under the natural ordering and B = 8
    (so ``grid12_pipeline``'s ``sf.A`` gets its structure back): the job's
    ``MPRuntimeResult``, with the instance's crew released."""
    from repro.solver import SparseCholesky

    with SparseCholesky(A, ordering="natural", block_size=8, backend="mp",
                        **knobs) as chol:
        return chol._run_mp()
