"""Edge cases and failure-injection tests across the stack."""

import numpy as np
import pytest
from scipy import sparse

from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph, simulate_fanout
from repro.machine.params import PARAGON
from repro.matrices import dense_matrix, grid2d_matrix
from repro.matrices.problem import ProblemMatrix
from repro.ordering import Ordering, order_problem
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import oracle_run_schedule
from tests.conftest import validate_task_graph


class TestTinyProblems:
    def test_one_by_one_matrix(self):
        A = sparse.csc_matrix(np.array([[4.0]]))
        sf = symbolic_factor(A, None)
        assert sf.factor_nnz == 1
        assert sf.nsupernodes == 1
        wm = WorkModel(BlockStructure(BlockPartition(sf, 48)))
        tg = TaskGraph(wm)
        assert tg.ntasks == 1  # a single BFAC
        r = simulate_fanout(tg, np.zeros(1, dtype=int), 1)
        assert r.t_parallel > 0

    def test_two_by_two_dense(self):
        A = sparse.csc_matrix(np.array([[4.0, 1.0], [1.0, 4.0]]))
        sf = symbolic_factor(A, None)
        bs = BlockStructure(BlockPartition(sf, 1))
        wm = WorkModel(bs)
        tg = TaskGraph(wm)
        validate_task_graph(tg)
        # panels: 2; tasks: 2 BFAC + 1 BDIV + 1 BMOD
        assert tg.ntasks == 4

    def test_diagonal_matrix_pipeline(self):
        A = sparse.diags([1.0, 2.0, 3.0, 4.0]).tocsc()
        sf = symbolic_factor(A, None)
        wm = WorkModel(BlockStructure(BlockPartition(sf, 2)))
        tg = TaskGraph(wm)
        r = simulate_fanout(tg, np.zeros(tg.nblocks, dtype=int), 1)
        assert r.comm_messages == 0

    def test_more_processors_than_blocks(self, grid12_pipeline):
        """P far beyond the block count must still complete."""
        tg = grid12_pipeline[5]
        owners = (tg.block_J % 3).astype(np.int64)  # only 3 procs used
        r = simulate_fanout(tg, owners, 1000)
        assert r.efficiency < 0.01


class TestValidation:
    def test_problem_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ProblemMatrix("X", sparse.random(3, 4, density=0.5).tocsc())

    def test_problem_matrix_rejects_dense_array(self):
        with pytest.raises(TypeError):
            ProblemMatrix("X", np.eye(3))

    def test_symbolic_on_indefinite_pattern_ok(self):
        """Symbolic analysis is values-blind: an indefinite matrix with a
        symmetric pattern analyzes fine (numerics would fail later)."""
        A = sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]) + np.eye(2) * -1)
        sf = symbolic_factor(A, None)
        assert sf.factor_nnz >= 2

    def test_ordering_empty(self):
        o = Ordering(np.empty(0, dtype=np.int64))
        assert o.n == 0


class TestRandomOwnershipRobustness:
    def test_arbitrary_non_cp_ownership_completes(self, grid12_pipeline):
        """The simulator must not assume CP structure: random owners."""
        _, sf, _, bs, wm, tg = grid12_pipeline
        rng = np.random.default_rng(0)
        owners = rng.integers(0, 7, size=tg.nblocks)
        r = simulate_fanout(tg, owners, 7, record_schedule=True)
        from repro.numeric import BlockCholesky

        chol = BlockCholesky(bs, sf.A)
        L = oracle_run_schedule(chol, tg, r.schedule).to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-9

    def test_static_volume_matches_for_random_owners(self, grid12_pipeline):
        from repro.analysis import communication_volume
        from repro.fanout import simulate_fanout as sim

        tg = grid12_pipeline[5]
        rng = np.random.default_rng(1)
        owners = rng.integers(0, 5, size=tg.nblocks)
        static = communication_volume(tg, owners)
        dynamic = sim(tg, owners, 5)
        assert static.messages == dynamic.comm_messages
        assert static.bytes == dynamic.comm_bytes


class TestWorkModelEdges:
    def test_block_size_larger_than_matrix(self):
        p = grid2d_matrix(4)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        part = BlockPartition(sf, 10_000)
        # every supernode is one panel
        assert part.npanels == sf.nsupernodes

    def test_dense_one_panel(self):
        p = dense_matrix(10)
        sf = symbolic_factor(p.A, None)
        wm = WorkModel(BlockStructure(BlockPartition(sf, 100)))
        assert wm.total_ops == 1  # single BFAC, nothing else
        tg = TaskGraph(wm)
        r = simulate_fanout(tg, np.zeros(1, dtype=int), 4)
        assert r.efficiency <= 0.25 + 1e-9  # serial on one of four procs
