import argparse
import itertools
import types

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "GRID150"])
        assert args.P == 64
        assert args.mapping == "ID/CY"
        assert args.scale == "medium"

    def test_an_unknown_mapping_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "GRID150", "--scale", "small",
                  "--mapping", "bogus"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unknown mapping 'bogus'" in err and "'cyclic'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["info", "factor", "simulate",
                                         "analyze"])
    def test_an_unknown_problem_is_a_usage_error(self, command, capsys):
        argv = [command, "NOPE", "--scale", "small"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "'NOPE'" in err and "'GRID150'" in err and "'BCSSTK31'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["experiment", "table2"], ["suite"]],
                             ids=["experiment", "suite"])
    def test_the_experiment_commands_take_no_block_size(self, argv, capsys):
        """An experiment runs at its own block sizes: a ``--block-size``
        it would ignore is a usage error, not a table at B = 48."""
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(
                argv + ["--scale", "small", "--block-size", "16"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --block-size 16" in (
            capsys.readouterr().err)

    def test_the_commands_are_exactly_these(self):
        """A retired command cannot come back without this set changing."""
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "info", "factor", "simulate", "trace", "serve", "analyze",
            "experiment", "suite",
        }


class TestCommands:
    def test_info(self, capsys):
        rc = main(["info", "GRID150", "--scale", "small"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GRID150" in out and "nnz(L)" in out

    def test_factor(self, capsys):
        rc = main(["factor", "BCSSTK15", "--scale", "small",
                   "--block-size", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "solve residual" in out

    def test_simulate_cyclic(self, capsys):
        rc = main(["simulate", "GRID150", "--scale", "small", "-P", "16",
                   "--mapping", "cyclic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "efficiency" in out and "cyclic" in out

    def test_simulate_heuristic_nonsquare_p(self, capsys):
        rc = main(["simulate", "GRID150", "--scale", "small", "-P", "15",
                   "--mapping", "DW/ID"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DW/ID" in out

    def test_simulate_priority(self, capsys):
        """``--priority`` is column order; these are the numbers it printed
        when priority order was a queue structure of its own."""
        rc = main(["simulate", "BCSSTK15", "--scale", "small", "-P", "16",
                   "--priority"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[1:] == [
            "  runtime    : 12.05 ms (simulated)",
            "  efficiency : 0.235",
            "  Mflops     : 112.8",
            "  messages   : 259 (0.4 MB)",
            "  idle       : 0.75",
        ]

    def test_experiment_table3(self, capsys):
        rc = main(["experiment", "table3", "--scale", "small"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 3" in out

    def test_experiment_unknown(self, capsys):
        rc = main(["experiment", "tableX", "--scale", "small"])
        assert rc == 2

    def test_analyze(self, capsys):
        rc = main(["analyze", "BCSSTK15", "--scale", "small", "-P", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "etree height" in out and "critical path" in out
        assert "Paragon node" in out

    def test_experiment_dense_study(self, capsys):
        rc = main(["experiment", "dense_study", "--scale", "small"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dense problems" in out


class TestSuite:
    @pytest.fixture
    def fake_registry(self, monkeypatch):
        """Two stand-in experiments; records the scale each one ran at."""
        import repro.experiments.registry as registry
        from repro.experiments.runner import ExperimentResult

        ran = []

        def runner(name):
            def run(scale):
                ran.append((name, scale))
                return ExperimentResult(name, ("a",), [(1.0,)])
            return run

        fake = {n: (runner(n), "{:.1f}") for n in ("first", "second")}
        monkeypatch.setattr(registry, "EXPERIMENTS", fake)
        return ran

    def test_runs_the_registry_in_process_from_any_directory(
        self, tmp_path, monkeypatch, fake_registry
    ):
        import repro.experiments.registry as registry

        monkeypatch.chdir(tmp_path)
        assert main(["suite", "--scale", "small"]) == 0
        assert fake_registry == [("first", "small"), ("second", "small")]
        out = tmp_path / "results" / "small"
        assert {p.name for p in out.iterdir()} == {
            "first.txt", "first.json", "second.txt", "second.json",
            "ALL.txt",
        }
        # ALL.txt is the tables joined, with no wall-time stamp, so a
        # second run of the same tree, slower this time, writes the same
        # bytes.
        tables = [(out / f"{n}.txt").read_text() for n in ("first", "second")]
        assert (out / "ALL.txt").read_text() == "\n".join(tables)
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        ticks = itertools.count()
        monkeypatch.setattr(registry, "time", types.SimpleNamespace(
            time=lambda: next(ticks) ** 2
        ))
        assert main(["suite", "--scale", "small"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_installed_package_runs_the_suite(
        self, tmp_path, monkeypatch, fake_registry
    ):
        """No source checkout needed: the suite is the package's own."""
        import repro.cli

        fake = tmp_path / "site-packages" / "repro" / "cli.py"
        monkeypatch.setattr(repro.cli, "__file__", str(fake))
        monkeypatch.chdir(tmp_path)
        assert main(["suite", "--scale", "small"]) == 0
        assert len(fake_registry) == 2

    def test_unknown_experiment_lists_exactly_the_registry(self, capsys):
        from repro.experiments.registry import EXPERIMENTS

        assert main(["experiment", "tableX", "--scale", "small"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        known = err.strip().split("known: ", 1)[1].split(", ")
        assert known == list(EXPERIMENTS)
        assert len(known) == 22


class TestTraceCommand:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_a_recorded_trace_passes_and_a_tampered_one_fails(
        self, grid12_pipeline, nprocs, tmp_path, capsys
    ):
        """``repro trace`` on a real run's dump: summary, Gantt, replay
        validation and the Chrome export all succeed; the same file with
        one task span recorded twice fails validation. (A removed span
        passes: the file alone cannot say how many tasks there were.)
        P = 4 is a 2 x 2 grid, where a column has two owners."""
        import json

        from repro.runtime.trace import RunTrace
        from tests.conftest import mp_fanout

        _, sf, _, bs, _, tg = grid12_pipeline
        res = mp_fanout(bs, sf.A, tg, nprocs=nprocs, trace=True)
        path, out = tmp_path / "run.trace.json", tmp_path / "run.chrome.json"
        res.trace.dump(path)
        assert main(["trace", str(path), "--gantt", "--validate",
                     "--chrome", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

        tampered = RunTrace.load(path)
        task = next(e for e in tampered.events if e.cat == "task")
        tampered.events.insert(tampered.events.index(task), task)
        bad = tmp_path / "tampered.trace.json"
        tampered.dump(bad)
        assert main(["trace", str(bad), "--validate"]) == 1
        assert "FAIL" in capsys.readouterr().out
