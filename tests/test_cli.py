import argparse

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

    def test_the_commands_are_exactly_these(self):
        """A retired command cannot come back without this set changing."""
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "info", "factor", "simulate", "bench-real", "chaos", "trace",
            "serve", "chaos-service", "analyze", "experiment", "suite",
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

    def test_simulate_priority_no_domains(self, capsys):
        rc = main(["simulate", "BCSSTK15", "--scale", "small", "-P", "16",
                   "--priority", "--no-domains"])
        assert rc == 0

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
    def test_runs_the_checkout_script_from_any_directory(
        self, tmp_path, monkeypatch
    ):
        import pathlib
        import subprocess

        calls = []
        monkeypatch.setattr(
            subprocess, "call", lambda argv: calls.append(argv) or 0
        )
        monkeypatch.chdir(tmp_path)
        assert main(["suite", "--scale", "small"]) == 0
        ((_, script, scale),) = calls
        assert scale == "small"
        script = pathlib.Path(script)
        assert script.is_absolute() and script.is_file()
        assert script.name == "run_all_experiments.py"

    def test_installed_package_exits_2_with_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli

        fake = tmp_path / "site-packages" / "repro" / "cli.py"
        monkeypatch.setattr(repro.cli, "__file__", str(fake))
        assert main(["suite", "--scale", "small"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "run_all_experiments.py not found" in err
