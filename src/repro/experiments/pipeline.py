"""Shared problem-preparation pipeline with caching.

Symbolic analysis and task-graph construction are mapping-independent, so
experiments that sweep mappings (Tables 4, 5) reuse one prepared problem per
(matrix, scale, block size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph
from repro.matrices import get_problem
from repro.matrices.problem import ProblemMatrix
from repro.ordering import order_problem
from repro.symbolic import SymbolicFactor, symbolic_factor

#: The paper's block size (§3.2) — used by every experiment unless swept.
PAPER_BLOCK_SIZE = 48


@dataclass
class PreparedProblem:
    """Everything mapping experiments need, computed once per problem."""

    problem: ProblemMatrix
    symbolic: SymbolicFactor
    partition: BlockPartition
    structure: BlockStructure
    workmodel: WorkModel
    taskgraph: TaskGraph

    @property
    def name(self) -> str:
        return self.problem.name

    @property
    def factor_ops(self) -> int:
        return self.symbolic.factor_ops


_CACHE: dict[tuple, PreparedProblem] = {}


def prepare_problem(
    name: str,
    scale: str = "medium",
    block_size: int = PAPER_BLOCK_SIZE,
    use_cache: bool = True,
) -> PreparedProblem:
    """Generate, order, analyze and block-partition benchmark problem ``name``."""
    key = (name, scale, block_size)
    if use_cache and key in _CACHE:
        return _CACHE[key]
    problem = get_problem(name, scale)
    ordering = order_problem(problem)
    sf = symbolic_factor(problem.A, ordering)
    partition = BlockPartition(sf, block_size)
    structure = BlockStructure(partition)
    workmodel = WorkModel(structure)
    taskgraph = TaskGraph(workmodel)
    prepared = PreparedProblem(
        problem=problem,
        symbolic=sf,
        partition=partition,
        structure=structure,
        workmodel=workmodel,
        taskgraph=taskgraph,
    )
    if use_cache:
        _CACHE[key] = prepared
    return prepared


def clear_cache() -> None:
    _CACHE.clear()
