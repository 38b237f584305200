"""Experiment harness: the paper's tables and figures.

Each experiment is a ``run*(scale=..., ...) -> ExperimentResult`` function
of a module here, named in :data:`repro.experiments.registry.EXPERIMENTS`.
The registry is the only way one runs: ``python -m repro experiment <name>
--scale S`` prints one table, ``python -m repro suite --scale S`` writes
them all under ``results/<scale>/``. The benchmark suite under
``benchmarks/`` calls the functions directly.
"""

from repro.experiments.pipeline import PreparedProblem, prepare_problem, clear_cache
from repro.experiments.runner import ExperimentResult

__all__ = ["PreparedProblem", "prepare_problem", "clear_cache", "ExperimentResult"]
