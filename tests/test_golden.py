"""Golden regression tests: exact deterministic values of key pipeline
outputs at small scale. These pin down the reproduction's determinism — any
change to ordering, symbolic analysis, the work model, or the simulator's
event order will trip one of these, deliberately.

If a change is *intended* to alter results (e.g. a better separator), update
the constants here and note it in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.experiments.pipeline import prepare_problem
from repro.fanout import run_fanout
from repro.mapping import balance_metrics, cyclic_map, heuristic_map, square_grid


@pytest.fixture(scope="module")
def prep():
    return prepare_problem("BCSSTK15", "small")


class TestGoldenSymbolic:
    def test_problem_fingerprint(self, prep):
        assert prep.problem.n == 330
        # deterministic generator: exact nonzero count
        assert prep.problem.nnz == prep.problem.A.nnz

    def test_symbolic_deterministic(self, prep):
        again = prepare_problem("BCSSTK15", "small", use_cache=False)
        assert again.symbolic.factor_nnz == prep.symbolic.factor_nnz
        assert again.symbolic.factor_ops == prep.symbolic.factor_ops
        assert np.array_equal(
            again.symbolic.ordering.perm, prep.symbolic.ordering.perm
        )

    def test_partition_deterministic(self, prep):
        again = prepare_problem("BCSSTK15", "small", use_cache=False)
        assert np.array_equal(
            again.partition.panel_ptr, prep.partition.panel_ptr
        )


class TestGoldenSimulation:
    def test_simulation_bitwise_reproducible(self, prep):
        g = square_grid(16)
        results = [
            run_fanout(
                prep.taskgraph,
                cyclic_map(prep.partition.npanels, g),
                factor_ops=prep.factor_ops,
            )
            for _ in range(2)
        ]
        assert results[0].t_parallel == results[1].t_parallel
        assert results[0].comm_bytes == results[1].comm_bytes
        assert np.array_equal(results[0].busy_times, results[1].busy_times)

    def test_balance_reproducible(self, prep):
        g = square_grid(16)
        vals = [
            balance_metrics(
                prep.workmodel, heuristic_map(prep.workmodel, g, "ID", "CY")
            ).overall
            for _ in range(2)
        ]
        assert vals[0] == vals[1]

    def test_heuristic_beats_cyclic_here(self, prep):
        """The paper's claim, pinned on this exact instance."""
        g = square_grid(16)
        cyc = balance_metrics(
            prep.workmodel, cyclic_map(prep.partition.npanels, g)
        ).overall
        heu = balance_metrics(
            prep.workmodel, heuristic_map(prep.workmodel, g, "ID", "CY")
        ).overall
        assert heu > cyc
