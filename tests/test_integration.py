"""End-to-end integration tests: the paper's qualitative claims on small
instances, plus full pipeline (generate -> order -> factor -> solve) runs."""

import numpy as np
import pytest

from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph, assign_domains, block_owners, run_fanout, simulate_fanout
from repro.machine.params import PARAGON
from repro.mapping import (
    balance_metrics,
    best_grid,
    cyclic_map,
    heuristic_map,
    square_grid,
)
from repro.matrices import get_problem
from repro.numeric import BlockCholesky, solve_with_factor
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import oracle_run_schedule


@pytest.fixture(scope="module")
def small_suite():
    """Three prepared problems of different families at small scale."""
    out = {}
    for name in ("GRID150", "CUBE30", "BCSSTK15"):
        p = get_problem(name, "small")
        sf = symbolic_factor(p.A, order_problem(p))
        part = BlockPartition(sf, 16)
        wm = WorkModel(BlockStructure(part))
        out[name] = (p, sf, part, wm, TaskGraph(wm))
    return out


class TestFullPipeline:
    def test_factor_and_solve_every_family(self, small_suite):
        for name, (p, sf, part, wm, tg) in small_suite.items():
            bs = wm.structure
            L = BlockCholesky(bs, sf.A).factor().to_csc()
            rng = np.random.default_rng(1)
            b = rng.standard_normal(p.n)
            x = solve_with_factor(L, b, sf.ordering)
            assert np.max(np.abs(p.A @ x - b)) < 1e-6, name

    def test_parallel_schedule_numerically_valid(self, small_suite):
        p, sf, part, wm, tg = small_suite["BCSSTK15"]
        g = square_grid(16)
        owners = block_owners(
            tg, cyclic_map(tg.npanels, g), assign_domains(wm, g.P)
        )
        r = simulate_fanout(tg, owners, g.P, record_schedule=True)
        chol = BlockCholesky(wm.structure, sf.A)
        L = oracle_run_schedule(chol, tg, r.schedule).to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-8


class TestPaperClaims:
    """The qualitative shape of the paper's findings at reduced scale."""

    def test_heuristics_improve_overall_balance(self, small_suite):
        g = square_grid(16)
        for name, (p, sf, part, wm, tg) in small_suite.items():
            cyc = balance_metrics(wm, cyclic_map(wm.npanels, g)).overall
            heur = balance_metrics(wm, heuristic_map(wm, g, "ID", "CY")).overall
            assert heur > cyc, name

    def test_diagonal_imbalance_removed_by_nonsymmetric_maps(self, small_suite):
        """All remapping heuristics break the SC diagonal concentration."""
        g = square_grid(16)
        for name, (p, sf, part, wm, tg) in small_suite.items():
            cyc = balance_metrics(wm, cyclic_map(wm.npanels, g))
            for rh in ("DW", "DN", "ID"):
                bal = balance_metrics(wm, heuristic_map(wm, g, rh, rh))
                assert bal.diagonal >= cyc.diagonal * 0.95, (name, rh)

    def test_heuristic_improves_simulated_performance(self, small_suite):
        g = square_grid(16)
        wins = 0
        for name, (p, sf, part, wm, tg) in small_suite.items():
            cyc = run_fanout(tg, cyclic_map(tg.npanels, g),
                             factor_ops=sf.factor_ops).mflops
            heur = run_fanout(tg, heuristic_map(wm, g, "ID", "CY"),
                              factor_ops=sf.factor_ops).mflops
            wins += heur > cyc
        assert wins >= 2  # majority at this tiny scale

    def test_efficiency_below_balance_bound(self, small_suite):
        from repro.mapping.balance import overall_balance_from_owners

        g = square_grid(16)
        for name, (p, sf, part, wm, tg) in small_suite.items():
            dom = assign_domains(wm, g.P)
            cmap = cyclic_map(tg.npanels, g)
            owners = block_owners(tg, cmap, dom)
            r = simulate_fanout(tg, owners, g.P)
            bound = overall_balance_from_owners(wm, owners, g.P)
            assert r.efficiency <= bound + 1e-9, name

    def test_prime_grid_beats_square_cyclic(self, small_suite):
        """P-1 relatively-prime cyclic usually beats P square cyclic."""
        wins = 0
        for name, (p, sf, part, wm, tg) in small_suite.items():
            sq = run_fanout(
                tg, cyclic_map(tg.npanels, square_grid(16)),
                factor_ops=sf.factor_ops,
            ).mflops
            pr = run_fanout(
                tg, cyclic_map(tg.npanels, best_grid(15)),
                factor_ops=sf.factor_ops,
            ).mflops
            wins += pr > sq
        assert wins >= 2

    def test_communication_under_20_percent(self, small_suite):
        """§5: on the Paragon, comm costs < 20% of runtime. Check that the
        simulated wire time is a modest fraction of the parallel runtime."""
        g = square_grid(16)
        for name, (p, sf, part, wm, tg) in small_suite.items():
            r = run_fanout(tg, heuristic_map(wm, g, "ID", "CY"))
            wire_seconds = (
                r.comm_messages * PARAGON.latency
                + r.comm_bytes / PARAGON.bandwidth
            )
            # aggregate wire time spread over P processors
            assert wire_seconds / (g.P * r.t_parallel) < 0.5, name
