import numpy as np
import pytest

from repro.analysis import communication_volume, critical_path
from repro.baselines import (
    oned_block_owners,
    oned_column_critical_path,
    oned_column_flops,
)
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph, block_owners, simulate_fanout
from repro.mapping import heuristic_map, square_grid
from repro.matrices import grid2d_matrix
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import oracle_run_schedule


class TestOnedOwners:
    def test_column_locality(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        owners = oned_block_owners(tg, 4)
        assert np.array_equal(owners, tg.block_J % 4)

    def test_simulation_completes_and_correct(self, grid12_pipeline):
        _, sf, _, bs, wm, tg = grid12_pipeline
        owners = oned_block_owners(tg, 4)
        r = simulate_fanout(tg, owners, 4, record_schedule=True)
        from repro.numeric import BlockCholesky

        chol = BlockCholesky(bs, sf.A)
        L = oracle_run_schedule(chol, tg, r.schedule).to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-9

    def test_rejects_bad_p(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        with pytest.raises(ValueError):
            oned_block_owners(tg, 0)

    def test_column_method_more_volume_than_2d(self):
        """The paper's core §1 claim at fixed P (column granularity)."""
        from repro.baselines import oned_column_comm_volume

        p = grid2d_matrix(24)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        wm = WorkModel(BlockStructure(BlockPartition(sf, 12)))
        tg = TaskGraph(wm)
        P = 16
        v1 = oned_column_comm_volume(sf, P)
        owners2 = block_owners(
            tg, heuristic_map(wm, square_grid(P), "ID", "CY")
        )
        v2 = communication_volume(tg, owners2).bytes
        assert v1 > v2

    def test_volume_ratio_grows_with_p(self):
        """1-D volume grows ~linearly in P, 2-D ~sqrt(P): ratio increases."""
        from repro.baselines import oned_column_comm_volume

        p = grid2d_matrix(24)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        wm = WorkModel(BlockStructure(BlockPartition(sf, 12)))
        tg = TaskGraph(wm)
        ratios = []
        for P in (4, 16, 64):
            v1 = oned_column_comm_volume(sf, P)
            owners2 = block_owners(
                tg, heuristic_map(wm, square_grid(P), "ID", "CY")
            )
            v2 = communication_volume(tg, owners2).bytes
            ratios.append(v1 / max(1, v2))
        assert ratios[-1] > ratios[0]

    def test_column_volume_monotone_in_p(self):
        from repro.baselines import oned_column_comm_volume

        p = grid2d_matrix(16)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        vols = [oned_column_comm_volume(sf, P) for P in (2, 8, 32)]
        assert vols[0] <= vols[1] <= vols[2]


class TestOnedCriticalPath:
    def test_flops_model(self):
        cdiv, cmod = oned_column_flops(np.array([5, 3, 1]))
        assert cdiv.tolist() == [5, 3, 1]
        assert cmod.tolist() == [10, 6, 2]

    def test_path_bounded_by_sequential(self, grid12_pipeline):
        _, sf, *_ = grid12_pipeline
        cp = oned_column_critical_path(sf)
        assert 0 < cp.length_seconds <= cp.t_sequential
        assert cp.max_efficiency(10**9) < 1e-3

    def test_longer_than_block_path(self, grid12_pipeline):
        """Column tasks serialize cmods: the 1-D path must exceed the block
        DAG's (which lets updates into a block proceed concurrently)."""
        _, sf, _, _, _, tg = grid12_pipeline
        cp1 = oned_column_critical_path(sf)
        cp2 = critical_path(tg)
        assert cp1.length_seconds > cp2.length_seconds * 0.5

    def test_ratio_grows_with_grid_size(self):
        """O(k^2) vs O(k): the path ratio grows with k."""
        ratios = []
        for k in (10, 20, 30):
            p = grid2d_matrix(k)
            sf = symbolic_factor(p.A, order_problem(p, "nd"))
            tg = TaskGraph(WorkModel(BlockStructure(BlockPartition(sf, 8))))
            r = (
                oned_column_critical_path(sf).length_seconds
                / critical_path(tg).length_seconds
            )
            ratios.append(r)
        assert ratios[-1] > ratios[0]
