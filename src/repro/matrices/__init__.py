"""Benchmark matrix generators and I/O.

The paper's evaluation uses dense matrices, regular 2-D/3-D grid problems and
irregular Harwell-Boeing / application matrices (Tables 1 and 6). The regular
problems are generated exactly; the proprietary/irregular ones are replaced by
synthetic stand-ins with matching order and qualitatively matching structure
(see DESIGN.md, "Substitutions").
"""

from repro.matrices.generators import cube3d_matrix, dense_matrix, grid2d_matrix
from repro.matrices.problem import ProblemMatrix
from repro.matrices.registry import (
    BENCHMARK_SUITE,
    LARGE_SUITE,
    get_problem,
    problem_names,
)
from repro.matrices.spd import (
    is_symmetric_pattern,
    make_spd,
    random_spd_sparse,
    symmetric_csc,
)
from repro.matrices.synthetic import (
    bcsstk_like_matrix,
    copter_like_matrix,
    fleet_like_matrix,
)

__all__ = [
    "ProblemMatrix",
    "dense_matrix",
    "grid2d_matrix",
    "cube3d_matrix",
    "bcsstk_like_matrix",
    "copter_like_matrix",
    "fleet_like_matrix",
    "make_spd",
    "random_spd_sparse",
    "symmetric_csc",
    "is_symmetric_pattern",
    "BENCHMARK_SUITE",
    "LARGE_SUITE",
    "get_problem",
    "problem_names",
]
