import hashlib

import numpy as np
import pytest

from repro.experiments.pipeline import prepare_problem
from repro.fanout import (
    TaskGraph, assign_domains, block_owners, plan_block_owners, run_fanout,
    simulate_fanout, task_priorities,
)
from repro.machine.params import PARAGON, ZERO_COMM, MachineParams
from repro.mapping import (
    ProcessorGrid, cyclic_map, heuristic_map, named_map, square_grid,
)
from repro.mapping.balance import overall_balance_from_owners


class TestSimulateFanout:
    def test_single_processor_equals_sequential(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        r = run_fanout(tg, cyclic_map(tg.npanels, ProcessorGrid(1, 1)))
        assert r.t_parallel == pytest.approx(r.t_sequential)
        assert r.efficiency == pytest.approx(1.0)
        assert r.comm_messages == 0

    def test_all_tasks_complete(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        owners = block_owners(tg, cyclic_map(tg.npanels, square_grid(4)))
        r2 = simulate_fanout(tg, owners, 16, record_schedule=True)
        assert len(r2.schedule) == tg.ntasks
        assert len(set(r2.schedule)) == tg.ntasks

    def test_schedule_respects_dependencies(self, grid12_pipeline):
        """Every BMOD must complete after both its source blocks' BDIVs."""
        tg = grid12_pipeline[5]
        owners = block_owners(tg, cyclic_map(tg.npanels, square_grid(4)))
        r = simulate_fanout(tg, owners, 16, record_schedule=True)
        pos = {tid: i for i, tid in enumerate(r.schedule)}
        from repro.fanout.tasks import BDIV, BFAC, BMOD

        completion_task = {}
        for tid in range(tg.ntasks):
            kind = tg.task_kind[tid]
            if kind in (BFAC, BDIV):
                completion_task[int(tg.task_block[tid])] = tid
        for tid in range(tg.ntasks):
            if tg.task_kind[tid] == BMOD:
                for src in (tg.task_src1[tid], tg.task_src2[tid]):
                    if src >= 0:
                        assert pos[completion_task[int(src)]] < pos[tid]

    def test_efficiency_bounded_by_balance(self, grid12_pipeline):
        wm, tg = grid12_pipeline[4], grid12_pipeline[5]
        for P, rh in ((4, "CY"), (9, "ID"), (16, "DW")):
            g = square_grid(P)
            cmap = (
                cyclic_map(tg.npanels, g)
                if rh == "CY"
                else heuristic_map(wm, g, rh, "CY")
            )
            owners = block_owners(tg, cmap)
            bound = overall_balance_from_owners(wm, owners, P)
            r = simulate_fanout(tg, owners, P)
            assert r.efficiency <= bound + 1e-9

    def test_deterministic(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        cmap = cyclic_map(tg.npanels, square_grid(9))
        a = run_fanout(tg, cmap)
        b = run_fanout(tg, cmap)
        assert a.t_parallel == b.t_parallel
        assert a.comm_bytes == b.comm_bytes

    def test_zero_comm_faster(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        cmap = cyclic_map(tg.npanels, square_grid(9))
        slow = run_fanout(tg, cmap, machine=PARAGON)
        fast = run_fanout(tg, cmap, machine=ZERO_COMM)
        assert fast.t_parallel <= slow.t_parallel

    def test_domains_reduce_messages(self, random_spd_pipeline):
        wm, tg = random_spd_pipeline[4], random_spd_pipeline[5]
        g = square_grid(4)
        cmap = cyclic_map(tg.npanels, g)
        without = simulate_fanout(tg, block_owners(tg, cmap), g.P)
        with_dom = run_fanout(tg, cmap)  # plans the domains
        assert (assign_domains(wm, g.P).panel_owner >= 0).any()
        assert with_dom.comm_messages <= without.comm_messages

    def test_higher_latency_slower(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        cmap = cyclic_map(tg.npanels, square_grid(9))
        base = run_fanout(tg, cmap)
        slow_machine = MachineParams(latency=5e-3)
        slow = run_fanout(tg, cmap, machine=slow_machine)
        assert slow.t_parallel > base.t_parallel

    def test_priorities_complete(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        owners = plan_block_owners(tg, cyclic_map(tg.npanels, square_grid(9)))
        r = simulate_fanout(
            tg, owners, 9, priorities=task_priorities(tg, "column"),
            record_schedule=True,
        )
        assert r.t_parallel > 0
        assert sorted(r.schedule) == list(range(tg.ntasks))

    def test_mflops_property(self, grid12_pipeline):
        _, sf, _, _, _, tg = grid12_pipeline
        cmap = cyclic_map(tg.npanels, square_grid(4))
        r = run_fanout(tg, cmap, factor_ops=sf.factor_ops)
        assert r.mflops == pytest.approx(sf.factor_ops / r.t_parallel / 1e6)
        r2 = run_fanout(tg, cmap)
        with pytest.raises(ValueError):
            _ = r2.mflops

    def test_owner_validation(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        bad = np.zeros(tg.nblocks, dtype=int)
        bad[0] = 99
        with pytest.raises(ValueError):
            simulate_fanout(tg, bad, 4)

    def test_busy_time_accounting(self, grid12_pipeline):
        """Busy time >= pure compute time; idle fraction in [0, 1)."""
        wm, tg = grid12_pipeline[4], grid12_pipeline[5]
        cmap = cyclic_map(tg.npanels, square_grid(4))
        r = run_fanout(tg, cmap)
        compute = wm.total_work / PARAGON.flop_rate
        assert r.busy_times.sum() >= compute - 1e-12
        assert 0 <= r.idle_fraction < 1


def schedule_hash(result) -> str:
    data = np.asarray(result.schedule, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class TestReadyQueue:
    """Each processor has one ready heap keyed on (priority, arrival):
    no priorities is every priority 0, i.e. §2.3's arrival order."""

    @pytest.mark.parametrize("name", ["BCSSTK15", "GRID150", "CUBE30",
                                      "DENSE1024"])
    @pytest.mark.parametrize("P, mapping", [(16, "ID/CY"), (64, "cyclic"),
                                            (64, "DW/CY")])
    def test_fifo_is_all_zero_priorities(self, name, P, mapping):
        prep = prepare_problem(name, "medium")
        tg = prep.taskgraph
        owners = plan_block_owners(tg, named_map(prep.workmodel, P, mapping))
        fifo = simulate_fanout(tg, owners, P, record_schedule=True)
        zero = simulate_fanout(tg, owners, P, record_schedule=True,
                               priorities=np.zeros(tg.ntasks))
        assert fifo.schedule == zero.schedule
        assert fifo.t_parallel == zero.t_parallel
        assert np.array_equal(fifo.busy_times, zero.busy_times)
        assert fifo.comm_bytes == zero.comm_bytes
        assert fifo.events == zero.events

    @pytest.mark.parametrize("policy, golden", [
        ("fifo", "471a3f89b516760e"),
        ("column", "deb85f417ad46a94"),
    ])
    def test_schedule_is_pinned(self, policy, golden):
        """The order each queue ran BCSSTK15 in, as recorded when FIFO and
        priority order were two queue structures."""
        prep = prepare_problem("BCSSTK15", "small")
        tg = prep.taskgraph
        owners = plan_block_owners(tg, named_map(prep.workmodel, 16, "ID/CY"))
        r = simulate_fanout(tg, owners, 16, record_schedule=True,
                            priorities=task_priorities(tg, policy))
        assert schedule_hash(r) == golden

    def test_ties_run_in_arrival_order(self, grid12_pipeline):
        """Priorities order the queue; equal ones keep arrival order, so
        one constant priority is FIFO too."""
        tg = grid12_pipeline[5]
        owners = block_owners(tg, cyclic_map(tg.npanels, square_grid(4)))
        fifo = simulate_fanout(tg, owners, 4, record_schedule=True)
        flat = simulate_fanout(tg, owners, 4, record_schedule=True,
                               priorities=np.full(tg.ntasks, 7.0))
        assert flat.schedule == fifo.schedule
        column = simulate_fanout(tg, owners, 4, record_schedule=True,
                                 priorities=task_priorities(tg, "column"))
        assert column.schedule != fifo.schedule
