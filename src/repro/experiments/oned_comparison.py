"""§1 baseline comparison: 1-D column mapping vs 2-D block mapping.

Regenerates the two quantitative claims the paper's introduction makes
against 1-D methods:

1. **communication volume** grows linearly in P for the 1-D column mapping
   but as sqrt(P) for a 2-D CP mapping;
2. **critical path** of the column task decomposition is O(k^2) for a
   k x k grid versus O(k) for the block decomposition.

Plus the bottom line: simulated factorization performance of the same block
fan-out engine under 1-D block-column vs 2-D heuristic ownership.
"""

from __future__ import annotations

from repro.analysis import communication_volume, critical_path
from repro.baselines import (
    oned_block_owners,
    oned_column_comm_volume,
    oned_column_critical_path,
)
from repro.experiments.pipeline import prepare_problem
from repro.experiments.runner import ExperimentResult
from repro.fanout import block_owners, simulate_fanout
from repro.machine.params import PARAGON
from repro.mapping import heuristic_map, square_grid
from repro.matrices import grid2d_matrix
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor


def run_volume_scaling(
    scale: str = "medium",
    matrix: str = "CUBE30",
    Ps: tuple[int, ...] = (16, 36, 64, 100),
    machine=PARAGON,
) -> ExperimentResult:
    """Communication volume of the 1-D *column* method (analytic) versus the
    2-D block mapping (static accounting) as P grows."""
    prep = prepare_problem(matrix, scale)
    tg, wm, sf = prep.taskgraph, prep.workmodel, prep.symbolic
    rows = []
    data = {}
    for P in Ps:
        grid = square_grid(P)
        owners_2d = block_owners(tg, heuristic_map(wm, grid, "ID", "CY"))
        v2 = communication_volume(tg, owners_2d, machine).bytes
        v1 = oned_column_comm_volume(sf, P, machine)
        data[P] = {"oned_mb": v1 / 1e6, "twod_mb": v2 / 1e6,
                   "ratio": v1 / max(1, v2)}
        rows.append((matrix, P, v1 / 1e6, v2 / 1e6, v1 / max(1, v2)))
    return ExperimentResult(
        experiment=f"Sec. 1: comm volume, 1-D vs 2-D ({matrix}, scale={scale})",
        headers=("Matrix", "P", "1-D MB", "2-D MB", "ratio"),
        rows=rows,
        data=data,
        notes=(
            "Expected: the 1-D/2-D volume ratio grows with P "
            "(linear vs sqrt(P) scaling)."
        ),
    )


def run_critical_path_scaling(
    ks: tuple[int, ...] = (16, 24, 32, 48),
    machine=PARAGON,
) -> ExperimentResult:
    """Critical path of column vs block decompositions on k x k grids."""
    rows = []
    data = {}
    for k in ks:
        p = grid2d_matrix(k)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        from repro.blocks import BlockPartition, BlockStructure, WorkModel
        from repro.fanout import TaskGraph

        tg = TaskGraph(WorkModel(BlockStructure(BlockPartition(sf, 16))))
        cp1 = oned_column_critical_path(sf, machine)
        cp2 = critical_path(tg, machine)
        ratio = cp1.length_seconds / cp2.length_seconds
        data[k] = {"oned_ms": cp1.length_seconds * 1e3,
                   "twod_ms": cp2.length_seconds * 1e3, "ratio": ratio}
        rows.append((k, cp1.length_seconds * 1e3, cp2.length_seconds * 1e3,
                     ratio))
    return ExperimentResult(
        experiment="Sec. 1: critical path, column (1-D) vs block (2-D) tasks",
        headers=("k", "1-D path (ms)", "2-D path (ms)", "ratio"),
        rows=rows,
        data=data,
        notes=(
            "Expected: the ratio grows roughly linearly in k "
            "(O(k^2) vs O(k))."
        ),
    )


def run_performance(
    scale: str = "medium",
    P: int = 64,
    machine=PARAGON,
) -> ExperimentResult:
    """Simulated Mflops: 1-D block-column vs 2-D heuristic ownership."""
    from repro.matrices.registry import problem_names

    grid = square_grid(P)
    rows = []
    data = {}
    for name in problem_names("table1"):
        prep = prepare_problem(name, scale)
        tg, wm = prep.taskgraph, prep.workmodel
        r1 = simulate_fanout(tg, oned_block_owners(tg, P), P,
                             machine=machine, factor_ops=prep.factor_ops)
        owners_2d = block_owners(tg, heuristic_map(wm, grid, "ID", "CY"))
        r2 = simulate_fanout(tg, owners_2d, P, machine=machine,
                             factor_ops=prep.factor_ops)
        data[name] = {"oned": r1.mflops, "twod": r2.mflops,
                      "oned_mb": r1.comm_bytes / 1e6,
                      "twod_mb": r2.comm_bytes / 1e6}
        rows.append((name, r1.mflops, r2.mflops,
                     r1.comm_bytes / 1e6, r2.comm_bytes / 1e6))
    return ExperimentResult(
        experiment=f"Sec. 1: 1-D vs 2-D simulated performance (P={P}, scale={scale})",
        headers=("Matrix", "1-D Mflops", "2-D Mflops", "1-D MB", "2-D MB"),
        rows=rows,
        data=data,
        notes="Expected: 2-D wins broadly; 1-D moves far more data.",
    )
