import numpy as np
import pytest
from scipy import sparse

from repro.analysis import communication_volume
from repro.analysis.comm_volume import solve_communication_volume
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import (
    TaskGraph, block_owners, plan_block_owners, run_fanout, simulate_fanout,
)
from repro.mapping import ProcessorGrid, cyclic_map, square_grid
from repro.symbolic import symbolic_factor


class TestCommunicationVolume:
    def test_zero_on_single_processor(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        owners = np.zeros(tg.nblocks, dtype=int)
        rep = communication_volume(tg, owners)
        assert rep.messages == 0 and rep.bytes == 0

    def test_matches_simulator_exactly(self, grid12_pipeline):
        """Static accounting must agree with the DES's message counters."""
        tg = grid12_pipeline[5]
        for P in (4, 9):
            cmap = cyclic_map(tg.npanels, square_grid(P))
            owners = block_owners(tg, cmap)
            static = communication_volume(tg, owners)
            dynamic = simulate_fanout(tg, owners, P)
            assert static.messages == dynamic.comm_messages
            assert static.bytes == dynamic.comm_bytes

    def test_matches_simulator_with_domains(self, random_spd_pipeline):
        tg = random_spd_pipeline[5]
        g = square_grid(4)
        cmap = cyclic_map(tg.npanels, g)
        owners = plan_block_owners(tg, cmap)
        static = communication_volume(tg, owners)
        dynamic = run_fanout(tg, cmap)
        assert static.messages == dynamic.comm_messages
        assert static.bytes == dynamic.comm_bytes

    def test_cp_fanout_bound(self, grid12_pipeline):
        """Under a CP map no block is sent to more than Pr + Pc processors."""
        tg = grid12_pipeline[5]
        g = ProcessorGrid(3, 3)
        owners = block_owners(tg, cyclic_map(tg.npanels, g))
        rep = communication_volume(tg, owners)
        assert rep.max_fanout <= g.Pr + g.Pc

    def test_solve_volume_hand_counted_on_a_2x2_grid(self):
        """A dense 8 x 8 matrix in four panels of width 2 on a 2 x 2
        grid, block (I, J) on rank ``2 (I % 2) + J % 2``. Diagonal owners
        are 0, 3, 0, 3; column 0 holds (1,0)@2, (2,0)@0, (3,0)@2, column 1
        (2,1)@1, (3,1)@3, column 2 (3,2)@2. By hand:

        * Y: column K's remote owners {2}, {1}, {2} -> 3;
        * FUP: blocks whose owner is not their row's diagonal owner,
          (1,0), (3,0), (2,1), (3,2) -> 4;
        * X: row I's remote owners {2}, {1}, {2} -> 3;
        * BUP: one share per remote owner of a column — {2}, {1}, {2} ->
          3, where one update per block would have sent 4 (rank 2 holds
          two blocks of column 0).

        Every frame is ``64 + 8 * 2 * nrhs`` bytes."""
        n, nrhs = 8, 3
        M = np.random.default_rng(0).standard_normal((n, n))
        A = sparse.csc_matrix(M @ M.T + n * np.eye(n))
        bs = BlockStructure(BlockPartition(symbolic_factor(A, None), 2))
        tg = TaskGraph(WorkModel(bs))
        assert tg.npanels == 4 and tg.nblocks == 10
        owners = 2 * (tg.block_I % 2) + tg.block_J % 2
        rep = solve_communication_volume(tg, owners, nrhs=nrhs)
        frame = 64 + 8 * 2 * nrhs
        assert (rep.y_messages, rep.fup_messages, rep.x_messages,
                rep.bup_messages) == (3, 4, 3, 3)
        assert (rep.y_bytes, rep.fup_bytes, rep.x_bytes, rep.bup_bytes) == (
            3 * frame, 4 * frame, 3 * frame, 3 * frame)
        assert (rep.messages, rep.bytes) == (13, 13 * frame)

    def test_more_processors_more_volume(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        v4 = communication_volume(
            tg, block_owners(tg, cyclic_map(tg.npanels, square_grid(4)))
        ).bytes
        v16 = communication_volume(
            tg, block_owners(tg, cyclic_map(tg.npanels, square_grid(16)))
        ).bytes
        assert v16 >= v4
