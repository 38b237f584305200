"""Focused tests for behaviors not covered elsewhere."""

import numpy as np
import pytest

from repro.experiments.figure1 import run as figure1_run
from repro.experiments.runner import ExperimentResult
from repro.fanout import TaskGraph
from repro.machine import DiscreteEventSimulator
from tests.conftest import validate_task_graph


class TestEventSimExtras:
    def test_schedule_after_relative(self):
        sim = DiscreteEventSimulator()
        seen = []
        sim.schedule_at(2.0, lambda: sim.schedule_after(3.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]

    def test_pending_counter(self):
        sim = DiscreteEventSimulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0


class TestTaskGraphFailureInjection:
    def test_validate_detects_corrupt_nmod(self, grid12_pipeline):
        wm, tg = grid12_pipeline[4], grid12_pipeline[5]
        broken = TaskGraph(wm)
        broken.nmod = broken.nmod.copy()
        broken.nmod[0] += 1
        with pytest.raises(AssertionError):
            validate_task_graph(broken)

    def test_validate_detects_missing_bfac(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        broken = TaskGraph(wm)
        broken.bfac_task = broken.bfac_task.copy()
        diag = np.flatnonzero(broken.block_I == broken.block_J)
        broken.bfac_task[diag[0]] = -1
        with pytest.raises(AssertionError):
            validate_task_graph(broken)


class TestDomainsSplitFactor:
    def test_higher_split_factor_smaller_domains(self, random_spd_pipeline):
        from repro.fanout import assign_domains

        wm = random_spd_pipeline[4]
        coarse = assign_domains(wm, 4, split_factor=1.0)
        fine = assign_domains(wm, 4, split_factor=8.0)
        # finer splitting pushes more panels into the root portion
        assert (fine.panel_owner < 0).sum() >= (coarse.panel_owner < 0).sum()

    def test_rejects_bad_p(self, random_spd_pipeline):
        from repro.fanout import assign_domains

        with pytest.raises(ValueError):
            assign_domains(random_spd_pipeline[4], 0)


class TestFigureChart:
    def test_figure1_embeds_ascii_chart(self):
        res = figure1_run("small", Ps=(16,))
        assert "efficiency" in res.notes
        assert "|" in res.notes  # bar chart bars present


class TestRunnerJsonTypes:
    def test_numpy_types_serialized(self):
        import json

        res = ExperimentResult(
            "X",
            ("a", "b"),
            [[np.int64(3), np.float64(1.5)]],
            data={"arr": np.arange(3)},
        )
        payload = json.loads(res.to_json())
        assert payload["rows"][0] == [3, 1.5]
