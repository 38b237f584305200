"""repro — reproduction of Rothberg & Schreiber, "Improved Load Distribution
in Parallel Sparse Cholesky Factorization" (Supercomputing '94).

The package implements block-oriented parallel sparse Cholesky factorization
(the block fan-out method) on a simulated message-passing multicomputer, and
the paper's block-mapping heuristics that repair the load imbalance of the
traditional 2-D cyclic mapping.

Quickstart
----------
>>> import repro
>>> prob = repro.grid2d_matrix(32)
>>> sf = repro.symbolic_factor(prob.A, repro.order_problem(prob, "nd"))
>>> part = repro.BlockPartition(sf, block_size=16)
>>> wm = repro.WorkModel(repro.BlockStructure(part))
>>> grid = repro.square_grid(16)
>>> tg = repro.TaskGraph(wm)
>>> cyc = repro.run_fanout(tg, repro.cyclic_map(part.npanels, grid),
...                        factor_ops=sf.factor_ops)
>>> heur = repro.run_fanout(tg, repro.heuristic_map(wm, grid, "ID", "CY"),
...                         factor_ops=sf.factor_ops)

See ``examples/`` for complete scenarios and ``repro.experiments`` for the
per-table reproduction harness.
"""

from repro.matrices import (
    ProblemMatrix,
    bcsstk_like_matrix,
    copter_like_matrix,
    cube3d_matrix,
    dense_matrix,
    fleet_like_matrix,
    get_problem,
    grid2d_matrix,
    problem_names,
)
from repro.ordering import Ordering, order_problem, permute_spd
from repro.symbolic import SymbolicFactor, symbolic_factor
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.mapping import (
    BalanceReport,
    CartesianMap,
    ProcessorGrid,
    balance_metrics,
    best_grid,
    cyclic_map,
    heuristic_map,
    processor_aware_row_map,
    square_grid,
    subtree_to_subcube_column_map,
)
from repro.machine import PARAGON, MachineParams
from repro.fanout import (
    DomainAssignment,
    FanoutResult,
    TaskGraph,
    assign_domains,
    block_owners,
    run_fanout,
    simulate_fanout,
)
from repro.numeric import BlockCholesky, solve_with_factor
from repro.analysis import (
    communication_volume,
    critical_path,
    tree_statistics,
    work_by_depth,
)
from repro.solver import ParallelPlan, SparseCholesky

__version__ = "1.0.0"

__all__ = [
    "ProblemMatrix",
    "dense_matrix",
    "grid2d_matrix",
    "cube3d_matrix",
    "bcsstk_like_matrix",
    "copter_like_matrix",
    "fleet_like_matrix",
    "get_problem",
    "problem_names",
    "Ordering",
    "order_problem",
    "permute_spd",
    "SymbolicFactor",
    "symbolic_factor",
    "BlockPartition",
    "BlockStructure",
    "WorkModel",
    "ProcessorGrid",
    "square_grid",
    "best_grid",
    "CartesianMap",
    "cyclic_map",
    "heuristic_map",
    "processor_aware_row_map",
    "subtree_to_subcube_column_map",
    "BalanceReport",
    "balance_metrics",
    "MachineParams",
    "PARAGON",
    "TaskGraph",
    "DomainAssignment",
    "assign_domains",
    "block_owners",
    "FanoutResult",
    "run_fanout",
    "simulate_fanout",
    "BlockCholesky",
    "solve_with_factor",
    "critical_path",
    "communication_volume",
    "tree_statistics",
    "work_by_depth",
    "SparseCholesky",
    "ParallelPlan",
    "__version__",
]
