"""Command-line interface: run / grid / aggregate, and the README's
Command line block."""

import re
from pathlib import Path

import pytest

from stochnewton.cli import main

TINY_SPEC = """\
problem.kind = synthetic
problem.n = 15
problem.kappa = 20.0
problem.sigma_pct = 0.5
run.solvers = lsos,sgd
run.max_iters = 10
run.reps = 2
run.seed = 42
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "tiny.spec"
    path.write_text(TINY_SPEC)
    return str(path)


class TestRun:
    def test_run_writes_outputs(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", spec_file, "--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()
        assert len(list(out.glob("*_rep*.csv"))) == 4
        text = capsys.readouterr().out
        assert "lsos:" in text and "sgd:" in text

    def test_preset_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--preset", "fig1-small", "--reps", "1",
                   "--max-iters", "5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert len(list(out.glob("*_rep*.csv"))) == 3  # lsos, sos, sgd

    def test_missing_spec_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_runs_without_records_print_no_final_error(self, tmp_path, capsys):
        # every run meets grad_tol before its first record
        spec = tmp_path / "stop.spec"
        spec.write_text(TINY_SPEC + "run.grad_tol = 1e9\n")
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "lsos: 2 runs, no iteration recorded" in text


class TestGrid:
    def test_grid_resolves_and_writes_spec(self, tmp_path, capsys):
        spec = tmp_path / "grid.spec"
        spec.write_text(TINY_SPEC.replace(
            "run.seed = 42",
            "run.seed = 42\nsolver.lsos.t_ini = grid\n"
            "grid.candidates = 1.0,0.1\n"))
        resolved = tmp_path / "resolved.spec"
        assert main(["grid", str(spec), "--out", str(resolved)]) == 0
        out = capsys.readouterr().out
        assert "solver.lsos.t_ini =" in out
        text = resolved.read_text()
        assert "t_ini = grid" not in text


class TestAggregate:
    def test_aggregate_directory(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", spec_file, "--out", str(out)])
        assert main(["aggregate", str(out), "--mode", "time"]) == 0
        assert (out / "lsos_agg_time.csv").exists()
        assert "final mean error" in capsys.readouterr().out


class TestReadme:
    def test_command_line_block_lists_exactly_the_subcommands(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
        listed = {line.split()[1] for line in block.splitlines()
                  if line.startswith("stochnewton ")}
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        parsed = set(re.search(r"\{([^}]*)\}", usage).group(1).split(","))
        assert listed == parsed
