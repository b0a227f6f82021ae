"""Command-line interface: run / grid / aggregate, and the README's
Command line block."""

import concurrent.futures
import multiprocessing
import re
from pathlib import Path

import pytest

from stochnewton.cli import main
from stochnewton.harness import GridSearchError

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

    def test_max_iters_bounds_finite_sum_runs(self, tmp_path):
        spec = tmp_path / "fs.spec"
        spec.write_text("problem.kind = logistic_synthetic\nproblem.N = 120\n"
                        "problem.features = 6\nrun.solvers = saga_ls\n"
                        "run.max_epochs = 2\nrun.reps = 1\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--max-iters", "3",
                     "--out", str(out)]) == 0
        rows = (out / "saga_ls_rep00.csv").read_text().splitlines()
        assert len(rows) - 1 == 3
        manifest = (out / "manifest.txt").read_text()
        assert "run.max_epochs = 0\n" in manifest
        assert "run.max_iters = 3\n" in manifest

    def test_negative_seed_names_the_key(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--preset", "fig1-small", "--seed", "-1",
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "run.seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "grid", "aggregate"])
    def test_a_bad_spec_is_a_usage_error_naming_the_key(self, command,
                                                         tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text(TINY_SPEC + "run.bogus = 1\n")
        if command == "aggregate":  # a manifest this version rejects
            (tmp_path / "manifest.txt").write_text(bad.read_text())
            argv = ["aggregate", str(tmp_path)]
        else:
            argv = [command, str(bad), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("stochnewton: error: ")
        assert "run.bogus" in err
        assert not (tmp_path / "out").exists()

    def test_missing_spec_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_spec_and_preset_together_are_a_usage_error(self, command,
                                                        spec_file, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, spec_file, "--preset", "fig1-small"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and spec_file in err and "fig1-small" in err

    def test_runs_without_records_print_no_final_error(self, tmp_path, capsys):
        # every run meets grad_tol before its first record
        stop = TINY_SPEC + "run.grad_tol = 1e9\n"
        spec = tmp_path / "stop.spec"
        spec.write_text(stop)
        out = str(tmp_path / "out")
        assert main(["run", str(spec), "--out", out]) == 0
        # the header-only traces that run wrote aggregate in either mode
        for mode in ("iter", "time"):
            assert main(["aggregate", out, "--mode", mode]) == 0
        text = capsys.readouterr().out
        assert text.count("lsos: 2 runs, no iteration recorded") == 3
        # a pilot with no record is never selected
        spec.write_text(stop + "solver.lsos.t_ini = grid\n")
        with pytest.raises(GridSearchError, match="no iteration"):
            main(["run", str(spec), "--out", str(tmp_path / "grid")])


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

    @pytest.mark.parametrize("huge", ["1e308", "1e200"])
    def test_a_trial_step_that_overflows_is_a_rejected_trial(self, huge,
                                                             tmp_path, capsys):
        # 1e308 * d overflows, so the trial is rejected before the oracle
        # sees it; 1e200 * d is finite, but the objective there is not
        spec = tmp_path / "huge.spec"
        spec.write_text("problem.n = 20\nrun.solvers = lsos\n"
                        "run.max_iters = 10\nsolver.lsos.t_ini = grid\n"
                        f"grid.candidates = {huge},1\n")
        assert main(["grid", str(spec)]) == 0
        assert capsys.readouterr().out == "solver.lsos.t_ini = 1.0\n"

    def test_grid_runs_pilots_in_the_worker_pool(self, tmp_path, capsys,
                                                  monkeypatch):
        from stochnewton import cli
        pools = []
        resolve = cli.resolve_grid_searches

        def spy(spec, problem, pool=None):
            pools.append(pool)
            return resolve(spec, problem, pool)
        monkeypatch.setattr(cli, "resolve_grid_searches", spy)
        printed = []
        for workers in (1, 2):
            spec = tmp_path / f"grid{workers}.spec"
            spec.write_text(TINY_SPEC.replace(
                "run.seed = 42",
                "run.seed = 42\nsolver.lsos.t_ini = grid\n"
                f"grid.candidates = 1.0,0.5,0.1\nrun.workers = {workers}\n"))
            assert main(["grid", str(spec)]) == 0
            assert multiprocessing.active_children() == []
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert pools[0] is None and pools[1] is not None

    def test_grid_forks_workers_for_its_pilots_only(self, tmp_path, capsys,
                                                    monkeypatch):
        # two pilots; the four replications `run` would add never run here
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        spec = tmp_path / "grid.spec"
        spec.write_text(TINY_SPEC + "solver.lsos.t_ini = grid\n"
                        "grid.candidates = 1.0,0.1\nrun.workers = 4\n")
        assert main(["grid", str(spec)]) == 0
        assert started == [1]
        assert multiprocessing.active_children() == []


class TestAggregate:
    def test_aggregate_directory(self, tmp_path, capsys):
        # sos steps by gains only, so no row of its traces holds an f_hat
        spec = tmp_path / "gain.spec"
        spec.write_text(TINY_SPEC.replace("lsos,sgd", "lsos,sos"))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        rows = (out / "sos_rep00.csv").read_text().splitlines()[1:]
        assert len(rows) == 10 and {r.split(",")[3] for r in rows} == {""}
        by_iter = (out / "sos_agg_iter.csv").read_text()
        for mode in ("iter", "time"):
            assert main(["aggregate", str(out), "--mode", mode]) == 0
            assert (out / f"lsos_agg_{mode}.csv").exists()
        assert (out / "sos_agg_iter.csv").read_text() == by_iter
        # run, then each aggregate: one line per solver
        assert capsys.readouterr().out.count("final mean error") == 6


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_library_quick_start_runs(self, capsys):
        section = self.README.read_text().split("## Library quick start", 1)[1]
        code = section.split("```python", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        assert "max_iters" in capsys.readouterr().out

    def test_command_line_block_lists_exactly_the_subcommands(self, capsys):
        block = self.README.read_text().split("## Command line", 1)[1].split("```")[1]
        listed = {line.split()[1] for line in block.splitlines()
                  if line.startswith("stochnewton ")}
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        parsed = set(re.search(r"\{([^}]*)\}", usage).group(1).split(","))
        assert listed == parsed
