"""Experiment specs, aggregation with confidence intervals, grid search,
output files and the manifest contract."""

import concurrent.futures
import csv
import dataclasses
import io
import itertools
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import textwrap
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from stochnewton import harness
from stochnewton.core import (PHASE_LINE_SEARCH, RngStream, RunTrace,
                              TraceRecord, write_trace_csv)
from stochnewton.harness import (AGG_BY_ITERATION, AGG_BY_TIME,
                                 ExperimentSpec, GridSearchError, PRESETS,
                                 SCHEMA, SpecError, _READS, _run_jobs,
                                 aggregate, aggregate_directory,
                                 build_problem, build_solver_config,
                                 grid_search_step, resolve_grid_searches,
                                 run_experiment, run_replication,
                                 write_manifest)
from stochnewton.logreg import Dataset, LogRegModel
from stochnewton.solvers import NOISY_METHODS, DeltaSchedule, SolverConfig
from stochnewton.steplen import LineSearchConfig
from stochnewton.synthetic import NoisyOracle

ITERATE_COLUMNS = ("iter", "f_hat", "true_error", "grad_norm_hat", "step_len",
                   "phase")


def _small_spec(**extra):
    base = {
        "problem.kind": "synthetic", "problem.n": "25",
        "problem.kappa": "50.0", "problem.sigma_pct": "0.5",
        "run.solvers": "lsos,sgd", "run.max_iters": "20",
        "run.reps": "3", "run.seed": "99",
    }
    base.update(extra)
    return ExperimentSpec.from_mapping(base)


def _logistic_spec(**extra):
    base = {
        "problem.kind": "logistic_synthetic", "problem.N": "120",
        "problem.features": "6", "run.solvers": "saga_ls,lsos_bfgs",
        "run.max_epochs": "2", "run.reps": "2", "run.seed": "5",
    }
    base.update(extra)
    return ExperimentSpec.from_mapping(base)


def _case_id(value):
    """A parameter id made of the value itself (a mapping's sorted
    ``key=value`` pairs), so that no id depends on the case's position."""
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in sorted(value.items()))
    return value


def _fake_trace(run_id, errors, times=None):
    tr = RunTrace(run_id)
    for k, e in enumerate(errors):
        t = times[k] if times is not None else float(k)
        tr.append(TraceRecord(iter=k, wall_time_s=t, f_hat=e, true_error=e,
                              grad_norm_hat=1.0, step_len=1.0,
                              phase=PHASE_LINE_SEARCH))
    return tr


class TestSpecParsing:
    def test_defaults_fill_in(self):
        spec = ExperimentSpec.from_mapping({})
        assert spec.get("run.reps") == 20
        assert spec.get("problem.kind") == "synthetic"

    def test_unknown_key_is_named_in_error(self):
        with pytest.raises(SpecError, match="problem.nn"):
            ExperimentSpec.from_mapping({"problem.nn": "3"})

    def test_unknown_method_is_rejected(self):
        with pytest.raises(SpecError, match="solver.warp.method"):
            ExperimentSpec.from_mapping({"run.solvers": "warp"})

    def test_solver_names_may_hold_letters_digits_dash_and_underscore(self):
        spec = ExperimentSpec.from_mapping({
            "run.solvers": "lsos-2,Sos_b9", "solver.lsos-2.method": "lsos",
            "solver.Sos_b9.method": "sos"})
        assert spec.solver_names() == ["lsos-2", "Sos_b9"]
        assert spec.solver_method("Sos_b9") == "sos"

    # every context in which a key each method now fixes itself used to
    # load, and every value of the deleted run.x0 and run.aggregate
    @pytest.mark.parametrize("key, value", [
        *[pytest.param("run.x0", value, id=f"run.x0={value}")
          for value in ("auto", "gauss5", "zeros")],
        *[pytest.param("run.aggregate", value, id=f"run.aggregate={value}")
          for value in ("iter", "time", "both")],
        *[pytest.param(f"solver.{method}.{param}", value,
                       id=f"solver.{method}.{param}")
          for method in ("lsos", "lsos_fs", "lsos_inexact", "sos")
          for param, value in [("cg_max_iters", "5"),
                               ("cg_rel_floor", "1e-6")]],
        *[pytest.param(f"solver.{method}.batch_scheme", value,
                       id=f"solver.{method}.batch_scheme")
          for method, value in [("lsos_bfgs", "partition"),
                                ("lsos_fs", "uniform"),
                                ("saga_ls", "partition")]]])
    def test_a_deleted_setting_fails_where_it_used_to_load(self, key, value):
        section, method = key.split(".")[:2]
        kind = "synthetic" if method in NOISY_METHODS else "logistic_synthetic"
        base = ({"problem.kind": kind, "run.solvers": method}
                if section == "solver" else {})
        with pytest.raises(SpecError, match=re.escape(key)):
            ExperimentSpec.from_mapping({**base, key: value})

    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# comment\nproblem.n = 12  # trailing\n\n"
                        "run.solvers = sgd\n")
        spec = ExperimentSpec.from_file(path)
        assert spec.get("problem.n") == 12
        assert spec.solver_names() == ["sgd"]

    def test_file_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("run.seed = 1\nproblem.n = 12\n\nrun.seed = 2\n")
        with pytest.raises(SpecError, match=r"spec.txt:4: run.seed is "
                                            r"already set on line 1"):
            ExperimentSpec.from_file(path)

    @pytest.mark.parametrize("value", ["/data/run#2/train.svm",
                                       "a.svm\nrun.seed = 1", "a.svm\rb"])
    def test_a_value_a_manifest_cannot_hold_is_rejected(self, value):
        # the manifest writes values verbatim and a spec file cuts each line
        # at its first '#', so these would not read back as written
        with pytest.raises(SpecError, match="problem.path"):
            ExperimentSpec.from_mapping({"problem.kind": "libsvm",
                                         "run.solvers": "saga_ls",
                                         "problem.path": value})

    def test_manifest_reads_back_every_value(self, tmp_path):
        path = tmp_path / "manifest.txt"
        padded = ExperimentSpec.from_mapping({
            "problem.kind": "libsvm", "run.solvers": " saga_ls",
            "problem.path": " data.svm "})
        for spec in [*map(ExperimentSpec.from_preset, sorted(PRESETS)), padded]:
            with open(path, "w") as fh:
                write_manifest(spec, None, fh)
            assert ExperimentSpec.from_file(path).values == spec.values

    # a manifest as 0.2.0 wrote it, the last to hold run.aggregate and run.x0
    MANIFEST_0_2_0 = textwrap.dedent("""\
        # stochnewton 0.2.0 experiment manifest
        # aggregate CI: normal approximation, mean +- 1.96 s/sqrt(R)
        # problem: {'n': 10, 'kappa': 100.0, 'sigma': 0.1, 'hess_form': 'dense'}
        grid.candidates = 1,5e-1,1e-1,5e-2,1e-2,5e-3,1e-3,5e-4,1e-4,5e-5,1e-5
        problem.N = 2000
        problem.feature_condition = 1.0
        problem.features = 50
        problem.hess_form = dense
        problem.kappa = 100.0
        problem.kind = synthetic
        problem.n = 10
        problem.separation = 2.0
        problem.sigma_pct = 0.1
        run.aggregate = iter
        run.grad_tol = 0.0
        run.max_epochs = 0
        run.max_iters = 3
        run.reps = 1
        run.seed = 20200731
        run.solvers = lsos
        run.time_budget_s = inf
        run.workers = 1
        run.x0 = auto
        """)

    def test_a_manifest_that_fails_to_load_names_its_version(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text(self.MANIFEST_0_2_0)
        with pytest.raises(SpecError) as info:
            ExperimentSpec.from_file(path)
        assert str(info.value) == ("written by stochnewton 0.2.0: unknown "
                                   "configuration key 'run.aggregate'")
        # aggregating its directory fails the same way, and a rerun into it
        # deletes nothing
        (tmp_path / "sgd_rep00.csv").write_text("kept")
        with pytest.raises(SpecError, match=r"0\.2\.0: .*'run\.aggregate'"):
            aggregate_directory(tmp_path)
        run_experiment(_small_spec(**{"run.solvers": "lsos", "run.reps": "1"}),
                       out_dir=tmp_path)
        assert (tmp_path / "sgd_rep00.csv").read_text() == "kept"
        # a file without the header line keeps the plain message
        path.write_text(self.MANIFEST_0_2_0.split("\n", 1)[1])
        with pytest.raises(SpecError) as info:
            ExperimentSpec.from_file(path)
        assert str(info.value) == "unknown configuration key 'run.aggregate'"
        # and the header this version writes names this version
        with open(path, "w") as fh:
            write_manifest(_small_spec(), None, fh)
            fh.write("run.x0 = auto\n")
        with pytest.raises(SpecError, match=re.escape(
                f"written by stochnewton {harness.__version__}: unknown "
                "configuration key 'run.x0'")):
            ExperimentSpec.from_file(path)

    def test_the_package_version_has_one_home(self):
        # pyproject.toml reads it from the package, without importing it
        pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
        root = Path(__file__).resolve().parents[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools' beta-config notice
            config = pyproject.read_configuration(root / "pyproject.toml")
        assert config["project"]["version"] == harness.__version__

    def test_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("problem.n = 12\nrun.solvers = sgd\n",
                        encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ExperimentSpec.from_file(path).get("problem.n") == 12

    def test_file_requires_key_value_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("just words\n")
        with pytest.raises(SpecError, match="key = value"):
            ExperimentSpec.from_file(path)

    def test_override_returns_new_spec(self):
        spec = _small_spec()
        new = spec.override(**{"run.reps": 7})
        assert new.get("run.reps") == 7 and spec.get("run.reps") == 3

    def test_presets_all_validate(self):
        for name in PRESETS:
            spec = ExperimentSpec.from_preset(name)
            assert spec.solver_names()

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_preset("fig9-huge")

    def test_solver_method_defaults_to_name(self):
        spec = _small_spec()
        assert spec.solver_method("lsos") == "lsos"
        cfg = build_solver_config(spec, "lsos")
        assert cfg.method == "lsos"

    def test_fs_defaults_theta(self):
        spec = ExperimentSpec.from_mapping({
            "problem.kind": "logistic_synthetic", "run.solvers": "lsos_bfgs",
            "run.max_epochs": "2"})
        cfg = build_solver_config(spec, "lsos_bfgs")
        assert cfg.ls.theta == 0.999
        noisy = _small_spec()
        assert build_solver_config(noisy, "lsos").ls.theta == 0.9

    def test_zero_max_epochs_sets_no_epoch_budget(self):
        spec = ExperimentSpec.from_mapping({
            "problem.kind": "logistic_synthetic", "run.solvers": "saga_ls",
            "run.max_epochs": "0", "run.max_iters": "7"})
        cfg = build_solver_config(spec, "saga_ls")
        assert (cfg.max_epochs, cfg.max_iters) == (None, 7)

    def test_preset_configs_are_unchanged(self):
        # every field written out, so a default moving between the harness
        # and the config classes cannot change what a preset runs
        def ls(theta, t_start=1.0):
            return LineSearchConfig(eta=1e-4, beta=0.5, zeta_kind="geometric",
                                    theta=theta, t_start=t_start,
                                    max_backtracks=60, t_min=1e-3,
                                    switch_rule="step_norm")

        def noisy(method, max_iters, delta=DeltaSchedule("zero")):
            return SolverConfig(method=method, alpha0="auto", T=1e6,
                                ls=ls(0.9), delta=delta, max_iters=max_iters,
                                time_budget_s=math.inf, grad_tol=None)

        def finite_sum(method):
            return SolverConfig(method=method, ls=ls(0.999, t_start=0.1),
                                delta=DeltaSchedule("zero"), batch_size=None,
                                hess_batch_size=None, m=10, l=5,
                                max_epochs=10, max_iters=None,
                                time_budget_s=math.inf, grad_tol=None)

        expected = {
            "fig1-small": {m: noisy(m, 50) for m in ("lsos", "sos", "sgd")},
            "fig2-small": {
                "lsos": noisy("lsos", 250),
                "lsos_inexact": noisy("lsos_inexact", 250,
                                      DeltaSchedule("geometric", rho=0.95)),
                "sgd_ls": noisy("sgd_ls", 250)},
            "fig3-synthetic": {m: finite_sum(m)
                               for m in ("lsos_bfgs", "saga_ls")},
        }
        for preset, configs in expected.items():
            spec = ExperimentSpec.from_preset(preset)
            if preset == "fig3-synthetic":  # a resolved grid request
                spec = spec.override(**{f"solver.{m}.t_ini": "0.1"
                                        for m in configs})
            assert spec.solver_names() == list(configs)
            for name, cfg in configs.items():
                assert build_solver_config(spec, name) == cfg, (preset, name)

    @pytest.mark.parametrize("mapping, key", [
        ({"run.reps": "abc"}, "run.reps"),
        ({"run.reps": "0"}, "run.reps"),
        ({"run.workers": "0"}, "run.workers"),
        ({"run.max_iters": "0"}, "run.max_iters"),
        ({"grid.candidates": "a,b"}, "grid.candidates"),
        ({"problem.hess_form": "foo"}, "problem.hess_form"),
        ({"solver.lsos.delta": "constant"}, "solver.lsos.delta"),
        ({"solver.lsos.delta": "geometricfoo"}, "solver.lsos.delta"),
        ({"solver.lsos.eta": "big"}, "solver.lsos.eta"),
        ({"solver.lsos.eta": "2"}, "solver.lsos.eta"),
        ({"solver.lsos.batch_size": "7"}, "solver.lsos.batch_size"),
        ({"solver.saga_ls.alpha0": "0.5"}, "solver.saga_ls.alpha0"),
        ({"run.solvers": "lsos", "problem.kind": "logistic_synthetic"},
         "run.solvers"),
        ({"run.solvers": "lsos,lsos"}, "run.solvers"),
        ({"problem.kappa": "0.5"}, "problem.kappa"),
        ({"problem.sigma": "-1"}, "problem.sigma"),
        ({"problem.sigma_pct": "-1"}, "problem.sigma_pct"),
        ({"problem.density": "2"}, "problem.density"),
        ({"problem.feature_condition": "0.5"}, "problem.feature_condition"),
        ({"problem.mu": "0"}, "problem.mu"),
        ({"grid.candidates": "-1,0.5"}, "grid.candidates"),
        ({"run.time_budget_s": "0"}, "run.time_budget_s"),
        ({"solver.sos.alpha0": "-1"}, "solver.sos.alpha0"),
        ({"solver.sos.T": "0"}, "solver.sos.T"),
        ({"solver.lsos.T": "-1"}, "solver.lsos.T"),
        ({"run.solvers": "sgd", "solver.sgd.t_ini": "grid"}, "solver.sgd.t_ini"),
        ({"run.solvers": "sos", "solver.sos.eta": "0.1"}, "solver.sos.eta"),
        ({"solver.lsos.alpha0": "123"}, "solver.lsos.alpha0"),
        ({"run.solvers": "sgd_ls", "solver.sgd_ls.alpha0": "auto"},
         "solver.sgd_ls.alpha0"),
        # finite-sum keys the method never reads
        *[({"problem.kind": "logistic_synthetic", "run.solvers": method,
            f"solver.{method}.{param}": value}, f"solver.{method}.{param}")
          for method, param, value in [
              ("lsos_fs", "hess_batch_size", "10"),
              ("saga_ls", "hess_batch_size", "10"),
              ("lsos_fs", "m", "3"), ("lsos_fs", "l", "2"),
              ("saga_ls", "m", "3"), ("saga_ls", "l", "2"),
              ("lsos_fs", "saga_storage", "dense"),
              ("saga_ls", "delta", "zero"), ("lsos_bfgs", "delta", "zero")]],
        # the forcing term, which the noisy gradient methods never read
        *[({"run.solvers": method, f"solver.{method}.delta": "zero"},
           f"solver.{method}.delta") for method in ("sgd", "sgd_ls")],
        *[({"run.grad_tol": value}, "run.grad_tol")
          for value in ("-1", "nan", "-inf")],
        # non-finite numbers
        ({"problem.kappa": "inf"}, "problem.kappa"),
        *[({"problem.separation": value}, "problem.separation")
          for value in ("nan", "inf", "-inf")],
        ({"problem.sigma": "inf"}, "problem.sigma"),
        ({"problem.sigma_pct": "inf"}, "problem.sigma_pct"),
        ({"problem.feature_condition": "inf"}, "problem.feature_condition"),
        ({"problem.mu": "inf"}, "problem.mu"),
        *[({f"solver.lsos.{param}": value}, f"solver.lsos.{param}")
          for param in ("t_ini", "t_min") for value in ("nan", "inf")],
        ({"solver.lsos.T": "inf"}, "solver.lsos.T"),
        ({"solver.sos.alpha0": "inf"}, "solver.sos.alpha0"),
        # seeds are non-negative
        ({"run.seed": "-1"}, "run.seed"),
        # a logistic run has one SAGA table; only lsos_bfgs and saga_ls
        # accept the key
        *[({"problem.kind": "logistic_synthetic", "run.solvers": method,
            f"solver.{method}.saga_storage": value},
           f"solver.{method}.saga_storage")
          for method, value in [("saga_ls", "dense"),
                                ("lsos_fs", "loss_split")]],
        # a constant forcing term is finite
        *[({"solver.lsos.delta": f"constant:{value}"}, "solver.lsos.delta")
          for value in ("nan", "inf")],
        # settings each method fixes itself are no keys
        ({"solver.lsos.cg_rel_floor": "1e-6"}, "solver.lsos.cg_rel_floor"),
        ({"solver.lsos_inexact.cg_max_iters": "5"},
         "solver.lsos_inexact.cg_max_iters"),
        ({"solver.saga_ls.batch_scheme": "partition"},
         "solver.saga_ls.batch_scheme"),
        # a solver name is the stem of files that stay inside --out
        *[({"run.solvers": name, f"solver.{name}.method": "lsos"},
           "run.solvers")
          for name in ("/abs/escaped", "sub/lsos", "..", "lsos.v2")],
    ], ids=_case_id)
    def test_bad_input_names_the_key_at_load(self, mapping, key):
        with pytest.raises(SpecError) as info:
            ExperimentSpec.from_mapping(mapping)
        assert key in str(info.value)

    @pytest.mark.parametrize("raw, schedule", [
        ("zero", DeltaSchedule("zero")),
        ("geometric", DeltaSchedule("geometric")),
        ("geometric:0.8", DeltaSchedule("geometric", rho=0.8)),
        ("constant:0.01", DeltaSchedule("constant", value=0.01)),
    ])
    def test_delta_grammar(self, raw, schedule):
        spec = _small_spec(**{"solver.lsos.delta": raw})
        assert build_solver_config(spec, "lsos").delta == schedule

    def test_readme_lists_exactly_the_schema_keys(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("### Spec files", 1)[1].split("```")[1]
        keys = {re.sub(r"^solver\.[^.]+\.", "solver.*.",
                       line.split("=", 1)[0].strip())
                for line in block.splitlines() if line.split("#", 1)[0].strip()}
        assert keys == set(SCHEMA)

    def test_solver_keys_and_config_fields_are_one_to_one(self):
        # a setting added on one side only fails here
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        fields |= {f"ls.{f.name}" for f in dataclasses.fields(LineSearchConfig)}
        rows = [row.field for key, row in SCHEMA.items()
                if key.startswith("solver.*.") and row.field]
        assert len(rows) == len(set(rows))
        # saga_storage sets no field; it goes with its key (ROADMAP 11(b))
        assert set(rows) - fields == {"saga_storage"}
        # method has a row without a field; run.* keys set the budgets
        assert fields - set(rows) == {"method", "ls", "max_epochs", "max_iters",
                                      "time_budget_s", "grad_tol"}


# -- spec-load probe -------------------------------------------------------------

PROBE_VALUES = ("nan", "inf", "-inf", "-1", "0", "", "1e400")

# Probe values that load because they mean something documented; every other
# probe value must be rejected.
SPEC_LOADS = {
    "problem.sigma": {"0"},              # noise-free oracle
    "problem.sigma_pct": {"0"},
    "problem.separation": {"-1", "0"},   # <= 0: the two clouds overlap
    "problem.path": set(PROBE_VALUES) - {""},  # a file name, read at build
    "run.seed": {"0"},
    "run.max_epochs": {"0"},             # no epoch budget
    "run.grad_tol": {"0"},               # no gradient-norm stop
    "run.time_budget_s": {"inf", "1e400"},  # no time budget
}


def _probe_contexts():
    """``(key, base mapping)`` for every schema key, in a spec that reads
    it: each ``solver.*`` key once per method whose ``_READS`` row has it."""
    for row_key, row in SCHEMA.items():
        if not row_key.startswith("solver.*."):
            base = ({"problem.kind": "libsvm", "run.solvers": "saga_ls"}
                    if row_key == "problem.path" else {})
            yield pytest.param(row_key, base, id=row_key)
            continue
        owner = row.field.rpartition(".")[0]
        for method, reads in _READS.items():
            if row.field and row.field not in reads and owner not in reads:
                continue
            kind = ("synthetic" if method in NOISY_METHODS
                    else "logistic_synthetic")
            key = row_key.replace("*", method)
            yield pytest.param(key, {"problem.kind": kind, "run.solvers": method},
                               id=key)


# 1e400 overflows to inf here, as it does when a spec value is parsed
FLOAT_PROBES = (math.nan, math.inf, -math.inf, -1.0, 0.0, float("1e400"))

# fields read only under another field's value: probed in that setting
FIELD_SETTINGS = {(DeltaSchedule, "rho"): {"kind": "geometric"},
                  (DeltaSchedule, "value"): {"kind": "constant"}}
# probe values a config field accepts by documented meaning
FIELD_ACCEPTS = {
    (SolverConfig, "time_budget_s"): {math.inf},  # no time budget
    (SolverConfig, "grad_tol"): {0.0},            # no gradient-norm stop
    (DeltaSchedule, "value"): {0.0},              # exact Newton systems
}


def _field_probes():
    """``(class, field, values)`` for every field of the config classes.

    Each field gets the probe values its type can hold: a float (or an
    ``object``, like ``alpha0``) all of FLOAT_PROBES, an int -1, 0 and the
    non-integers 2.5, nan and inf, a string "".  Nested configs are probed
    as classes of their own.
    """
    for cls in (SolverConfig, LineSearchConfig, DeltaSchedule):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            types = set(typing.get_args(hints[f.name])) or {hints[f.name]}
            values = ([""] if types & {str, object} else []) + (
                list(FLOAT_PROBES) if types & {float, object}
                else [-1, 0, 2.5, math.nan, math.inf] if int in types
                else [])
            if values:
                yield pytest.param(cls, f.name, values,
                                   id=f"{cls.__name__}.{f.name}")


class TestSpecLoadProbe:
    @pytest.mark.parametrize("key, base", list(_probe_contexts()))
    def test_every_key_rejects_or_documents_each_probe(self, key, base):
        allowed = SPEC_LOADS.get(key, set())
        wrong = []
        for value in PROBE_VALUES:
            try:
                ExperimentSpec.from_mapping({**base, key: value})
            except SpecError as exc:
                if value in allowed or key not in str(exc):
                    wrong.append(f"{value!r} raised {exc}")
            else:
                if value not in allowed:
                    wrong.append(f"{value!r} loaded")
        assert not wrong, f"{key}: {wrong}"

    @pytest.mark.parametrize("cls, name, values", list(_field_probes()))
    def test_every_config_field_rejects_or_documents_each_probe(
            self, cls, name, values):
        setting = FIELD_SETTINGS.get((cls, name), {})
        allowed = FIELD_ACCEPTS.get((cls, name), set())
        wrong = []
        for value in values:
            try:
                cls(**setting, **{name: value})
            except ValueError:
                if value in allowed:
                    wrong.append(f"{value!r} raised")
            else:
                if value not in allowed:
                    wrong.append(f"{value!r} accepted")
        assert not wrong, f"{cls.__name__}.{name}: {wrong}"


class TestAggregate:
    def test_single_run_has_zero_ci(self):
        curve = aggregate([_fake_trace("a-rep00", [3.0, 2.0, 1.0])])
        assert np.all(curve.ci_half == 0.0)
        np.testing.assert_allclose(curve.mean_error, [3.0, 2.0, 1.0])

    def test_identical_traces_have_zero_ci(self):
        traces = [_fake_trace(f"a-rep{r:02d}", [3.0, 2.0, 1.0])
                  for r in range(20)]
        curve = aggregate(traces)
        assert np.allclose(curve.ci_half, 0.0)
        np.testing.assert_allclose(curve.mean_error, [3.0, 2.0, 1.0])

    def test_ci_width_matches_known_variance(self):
        # errors ~ N(mu_k, sigma): half-width ~= 1.96 sigma / sqrt(R);
        # the sample half-width itself fluctuates ~ 1/sqrt(2R), so R = 800
        # keeps the 10% band comfortably wide
        rng = RngStream(5, 0)
        sigma, R = 0.3, 800
        traces = [_fake_trace(f"a-rep{r:02d}",
                              5.0 + sigma * rng.standard_normal(4))
                  for r in range(R)]
        curve = aggregate(traces)
        expected = 1.96 * sigma / math.sqrt(R)
        assert np.all(np.abs(curve.ci_half - expected) < 0.1 * expected)

    def test_order_invariant(self):
        rng = RngStream(6, 0)
        traces = [_fake_trace(f"a-rep{r:02d}", rng.uniform(0, 1, 5))
                  for r in range(9)]
        c1 = aggregate(traces)
        c2 = aggregate(list(reversed(traces)))
        assert np.array_equal(c1.mean_error, c2.mean_error)
        assert np.array_equal(c1.ci_half, c2.ci_half)

    def test_mixed_solvers_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            aggregate([_fake_trace("a-rep00", [1.0]),
                       _fake_trace("b-rep00", [1.0])])

    def test_truncates_to_shortest_run(self):
        traces = [_fake_trace("a-rep00", [4.0, 3.0, 2.0, 1.0]),
                  _fake_trace("a-rep01", [4.0, 3.0])]
        curve = aggregate(traces)
        assert len(curve.checkpoints) == 2

    def test_time_bucket_interpolation(self):
        # error falls linearly in time: interpolation must reproduce it
        times = [0.0, 1.0, 2.0, 4.0]
        errors = [8.0, 7.0, 6.0, 4.0]
        traces = [_fake_trace(f"a-rep{r:02d}", errors, times) for r in range(3)]
        curve = aggregate(traces, AGG_BY_TIME, time_buckets=9)
        np.testing.assert_allclose(curve.mean_error, 8.0 - curve.checkpoints,
                                   atol=1e-12)
        assert curve.checkpoints[-1] == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @staticmethod
    def _direct(columns):
        """Mean and 95% half-width of each checkpoint of an ``(R, m)``
        matrix, one column at a time."""
        R = len(columns)
        mean = [np.mean(col) for col in columns.T]
        half = [1.96 * np.std(col, ddof=1) / math.sqrt(R) if R > 1 else 0.0
                for col in columns.T]
        return np.array(mean), np.array(half)

    @staticmethod
    def _columns(runs, mode, buckets):
        """The checkpoints and ``(R, m)`` errors of `runs`, placed by hand."""
        if mode == AGG_BY_ITERATION:
            n = min(len(errors) for errors, _ in runs)
            return np.arange(n), np.array([errors[:n] for errors, _ in runs])
        grid = np.linspace(0.0, min(times[-1] for _, times in runs), buckets)
        return grid, np.array([np.interp(grid, times, errors)
                               for errors, times in runs])

    @pytest.mark.parametrize("mode", [AGG_BY_ITERATION, AGG_BY_TIME])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_statistics_match_a_direct_computation(self, R, mode):
        # runs of unequal length, errors over ten decades
        rng = RngStream(11, R)
        runs = [(10.0 ** rng.uniform(-8, 2, 4 + 2 * r),
                 np.cumsum(rng.uniform(0.01, 0.1, 4 + 2 * r)))
                for r in range(R)]
        traces = [_fake_trace(f"a-rep{r:02d}", errors, times)
                  for r, (errors, times) in enumerate(runs)]
        curve = aggregate(traces, mode, time_buckets=7)
        checkpoints, columns = self._columns(runs, mode, 7)
        mean, half = self._direct(columns)
        assert curve.n_runs == R
        assert curve.checkpoints.tolist() == checkpoints.tolist()
        assert curve.mean_error.tobytes() == mean.tobytes()
        assert curve.ci_half.tobytes() == half.tobytes()

    @pytest.mark.parametrize("mode", [AGG_BY_ITERATION, AGG_BY_TIME])
    def test_a_run_without_records_gives_an_empty_curve(self, mode):
        traces = [_fake_trace("a-rep00", [3.0, 2.0]), _fake_trace("a-rep01", [])]
        curve = aggregate(traces, mode)
        assert curve.n_runs == 2
        assert len(curve.checkpoints) == len(curve.mean_error) == 0
        assert len(curve.ci_half) == 0

    @pytest.mark.parametrize("mode", [AGG_BY_ITERATION, AGG_BY_TIME])
    def test_a_diverged_run_reads_inf_without_a_warning(self, mode):
        # a checkpoint where any run's error is inf or nan (as np.interp
        # can give next to an inf record) has mean and half-width inf;
        # every other checkpoint is the plain statistic
        runs = [([4.0, 2.0, 1.0, 0.5], [0.0, 1.0, 2.0, 3.0]),
                ([4.0, 3.0, math.inf, math.inf], [0.0, 1.0, 2.0, 3.0]),
                ([4.0, 1.0, 2.0, math.nan], [0.0, 1.0, 2.0, 3.0])]
        traces = [_fake_trace(f"a-rep{r:02d}", errors, times)
                  for r, (errors, times) in enumerate(runs)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = aggregate(traces, mode, time_buckets=7)
        _, columns = self._columns(runs, mode, 7)
        finite = np.isfinite(columns).all(axis=0)
        assert 0 < finite.sum() < len(finite)
        mean, half = self._direct(columns[:, finite])
        assert curve.mean_error[finite].tobytes() == mean.tobytes()
        assert curve.ci_half[finite].tobytes() == half.tobytes()
        assert np.all(curve.mean_error[~finite] == math.inf)
        assert np.all(curve.ci_half[~finite] == math.inf)

    @pytest.mark.parametrize("mode", [AGG_BY_ITERATION, AGG_BY_TIME])
    def test_record_without_true_error_rejected(self, mode):
        # the sampled objective f_hat is no stand-in for the error
        partial = _fake_trace("a-rep01", [3.0, 2.0])
        partial.records[1].true_error = None
        with pytest.raises(ValueError, match="a-rep01"):
            aggregate([_fake_trace("a-rep00", [3.0, 2.0]), partial], mode)


class TestGridSearch:
    def test_single_candidate_returned(self):
        assert grid_search_step({0.5: 1.0}) == 0.5

    def test_divergent_candidates_filtered(self):
        # a pilot with no record has a NaN final error and is never selected
        best = grid_search_step({1.0: math.inf, 0.5: math.nan, 0.1: 0.1,
                                 0.05: 0.05})
        assert best == 0.05

    def test_all_divergent_raises_with_diagnostics(self):
        with pytest.raises(GridSearchError, match="diverged"):
            grid_search_step({1.0: math.nan, 0.5: math.nan})

    def test_tie_breaks_toward_larger_step(self):
        assert grid_search_step({0.01: 1.0, 1.0: 1.0, 0.1: 1.0}) == 1.0

    def test_isotropic_quadratic_picks_step_nearest_inverse_curvature(self):
        # fixed-step gradient descent on f = L/2 ||x||^2 contracts by
        # |1 - t L| per step; the best candidate minimizes that factor
        L, k_steps = 8.0, 12

        def run_candidate(t):
            x = 1.0
            for _ in range(k_steps):
                x = x - t * L * x
            return abs(x)

        candidates = [1.0, 0.5, 0.1, 0.05, 0.01]
        best = grid_search_step({t: run_candidate(t) for t in candidates})
        assert best == min(candidates, key=lambda t: abs(1 - t * L))


class TestPilots:
    """A pilot scores the iterate its run returns with one exact query; its
    iterates are those of the full run."""

    PILOT_SPECS = [
        # 1e308 diverges; t_ini 1 of saga_ls stops early at grad_tol
        ({"diverged", "grad_tol"}, _logistic_spec(**{
            "run.grad_tol": "0.05", "grid.candidates": "1e308,10,1,1e-1",
            "solver.saga_ls.t_ini": "grid", "solver.lsos_bfgs.t_ini": "grid",
            **{f"solver.{m}.{key}": value for m in ("saga_ls", "lsos_bfgs")
               for key, value in (("beta", "0.99"), ("max_backtracks", "1"))}})),
        # t_ini 1 and 0.5 of lsos stop early at grad_tol
        ({"grad_tol"}, _small_spec(**{
            "run.solvers": "lsos,sgd_ls", "run.grad_tol": "3",
            "grid.candidates": "1,0.5,0.1,1e-2",
            "solver.lsos.t_ini": "grid", "solver.sgd_ls.t_ini": "grid"})),
    ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("early_ends, spec", PILOT_SPECS)
    def test_pilot_scores_equal_exact_errors_at_full_run_results(
            self, early_ends, spec, monkeypatch):
        results = []

        def keep(run):
            def kept(*args, **kwargs):
                results.append(run(*args, **kwargs))
                return results[-1]
            return kept

        monkeypatch.setattr(harness, "run_solver", keep(harness.run_solver))
        monkeypatch.setattr(harness, "run_fs_solver",
                            keep(harness.run_fs_solver))
        problem, _ = build_problem(spec)
        exact = (problem.value if spec.get("problem.kind") == "synthetic"
                 else problem.objective)
        seen = set()
        for name in spec.solver_names():
            for t_ini in spec.get("grid.candidates"):
                pilot = spec.override(**{f"solver.{name}.t_ini": repr(t_ini)})
                [score] = _run_jobs(problem, [(pilot, name, 0, True)])
                run_replication(problem, pilot, name, 0)
                full = results[-1]
                assert full.trace.records, (name, t_ini)
                expected = (math.inf if full.stop_reason == "diverged"
                            else exact(full.x) - problem.f_star)
                assert score == expected, (name, t_ini)
                seen.add(full.stop_reason)
        assert seen & {"diverged", "grad_tol"} == early_ends

    def test_pilots_make_one_exact_error_query_each(self, monkeypatch):
        calls = {}

        def count(cls, attr):
            original = getattr(cls, attr)

            def counted(self, x, *args):  # the iterates of each query
                calls[attr].append(len(np.atleast_2d(x)))
                return original(self, x, *args)
            monkeypatch.setattr(cls, attr, counted)

        count(LogRegModel, "objectives")  # the logistic block pass
        count(NoisyOracle, "true_error")
        specs = {
            "objectives": _logistic_spec(**{
                "grid.candidates": "1,1e-1,1e-2",
                "solver.saga_ls.t_ini": "grid",
                "solver.lsos_bfgs.t_ini": "grid"}),
            "true_error": _small_spec(**{"grid.candidates": "1,0.5,0.1",
                                         "solver.lsos.t_ini": "grid"}),
        }
        for attr, spec in specs.items():
            problem, _ = build_problem(spec)
            calls.update(objectives=[], true_error=[])
            resolve_grid_searches(spec, problem)
            n_grid = sum(spec.get(f"solver.{name}.t_ini") == "grid"
                         for name in spec.solver_names())
            n_pilots = n_grid * len(spec.get("grid.candidates"))
            assert calls[attr] == [1] * n_pilots

    @pytest.mark.parametrize("spec", [
        _small_spec(),
        _small_spec(**{"problem.n": "40", "problem.hess_form": "householder",
                       "run.solvers": "lsos_inexact,sgd_ls"}),
        _logistic_spec(**{"run.solvers": "saga_ls,lsos_bfgs,lsos_fs"}),
        "libsvm",
    ])
    def test_pickled_problem_reproduces_the_iterates(self, spec, tmp_path):
        # spawn and forkserver workers receive the parent's problem pickled
        if spec == "libsvm":
            data = tmp_path / "toy.libsvm"
            rng = np.random.default_rng(3)
            features = rng.standard_normal((60, 4))
            labels = np.where(features @ np.ones(4) > 0, 1.0, -1.0)
            with open(data, "w") as fh:
                Dataset(features, labels).to_libsvm(fh)
            spec = ExperimentSpec.from_mapping({
                "problem.kind": "libsvm", "problem.path": str(data),
                "problem.mu": "0.05", "run.solvers": "saga_ls,lsos_fs",
                "run.max_epochs": "2", "run.seed": "6"})
        problem, _ = build_problem(spec)
        copy = pickle.loads(pickle.dumps(problem))
        for name in spec.solver_names():
            for rep in range(2):
                t1 = run_replication(problem, spec, name, rep)
                t2 = run_replication(copy, spec, name, rep)
                assert len(t1) > 0
                for column in ITERATE_COLUMNS:
                    assert t1.column(column) == t2.column(column), (name, column)


def _stub_scan(monkeypatch, scores: dict, workers: int = 1):
    """Resolve the grid searches of ``scores`` (solver -> pilot errors, in
    candidate order, largest first) with stub pilots that return them.

    Returns the index of each selected candidate and the candidate indices
    of every pilot submitted, per solver, in submission order.
    """
    n = len(next(iter(scores.values())))
    grid = [10.0 ** -i for i in range(n)]
    spec = _logistic_spec(**{
        "run.workers": str(workers), "grid.candidates": ",".join(map(repr, grid)),
        **{f"solver.{name}.t_ini": "grid" for name in scores}})
    run_jobs, submitted = harness._run_jobs, {name: [] for name in scores}

    def pilot(problem, spec, name, rep, pilot=False):
        assert pilot and rep == 0
        return scores[name][grid.index(spec.get(f"solver.{name}.t_ini"))]

    def counted(problem, jobs, pool=None):
        for job_spec, name, *_ in jobs:
            submitted[name].append(grid.index(job_spec.get(f"solver.{name}.t_ini")))
        return run_jobs(problem, jobs, pool)

    monkeypatch.setattr(harness, "run_replication", pilot)
    monkeypatch.setattr(harness, "_run_jobs", counted)
    with harness.worker_pool(spec, None, len(harness.grid_pilots(spec))) as pool:
        resolved = resolve_grid_searches(spec, None, pool)
    assert multiprocessing.active_children() == []
    return ({name: grid.index(resolved.get(f"solver.{name}.t_ini"))
             for name in scores}, submitted)


class TestGridScan:
    """Each solver scans its candidates from the largest down and stops at
    the second consecutive pilot that fails to beat its best error."""

    INF, NAN = math.inf, math.nan

    @pytest.mark.parametrize("errors, ran, selected", [
        ([5, 4, 3, 2, 1], 5, 4),  # falling: the whole grid
        ([5, 3, 1, 2, 4, 6, 0.5], 5, 2),  # V-shaped: stops past the valley
        ([1, 1, 1, 1, 1], 3, 0),  # flat: ties fail to beat the best
        ([5, 6, 4, 7, 8, 1], 5, 2),  # a miss then a new best starts over
        ([INF, NAN, INF, 2, 1, 3, 4], 7, 4),  # a non-finite head never stops it
        ([NAN, 3, NAN, INF, 1], 4, 1),  # ... but counts once a best is finite
    ])
    def test_stop_index_and_selection(self, errors, ran, selected,
                                      monkeypatch):
        chosen, submitted = _stub_scan(monkeypatch, {"saga_ls": errors})
        assert submitted == {"saga_ls": list(range(ran))}
        assert chosen == {"saga_ls": selected}

    def test_a_grid_of_three_or_fewer_candidates_runs_in_full(self,
                                                             monkeypatch):
        values = (1, 2, 3, math.inf, math.nan)
        for n in (1, 2, 3):
            for errors in itertools.product(values, repeat=n):
                if any(map(math.isfinite, errors)):  # else nothing to select
                    _, submitted = _stub_scan(monkeypatch,
                                              {"saga_ls": list(errors)})
                    assert submitted == {"saga_ls": list(range(n))}, errors
                monkeypatch.undo()

    SCORES = {  # each solver runs a pilot past its stop that would win
        "saga_ls": [5, 6, 7, 0.1, 8, 0.01, 4, 3],
        "lsos_bfgs": [math.inf, 3, 2, 1, 1.5, 1.7, 0.01, 0.5],
    }

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                        reason="workers inherit the stub pilots under fork")
    def test_the_resolved_spec_does_not_depend_on_the_workers(self,
                                                              monkeypatch):
        stops = {"saga_ls": 3, "lsos_bfgs": 6}
        runs = {}
        for workers in (1, 2, 3):
            runs[workers] = _stub_scan(monkeypatch, self.SCORES, workers)
            monkeypatch.undo()
        for workers, (chosen, submitted) in runs.items():
            # the selection reads only the prefix up to the stop
            assert chosen == {"saga_ls": 0, "lsos_bfgs": 3}, workers
            for name, indices in submitted.items():
                # each candidate once, in order; at most P - 1 past the stop
                assert indices == list(range(len(indices))), workers
                assert stops[name] <= len(indices) < stops[name] + workers
        assert runs[1][1] == {name: list(range(stop))
                              for name, stop in stops.items()}
        # pools run winning pilots past the stop: lsos_bfgs's at 2 and 3
        # processes, saga_ls's at 3
        assert len(runs[2][1]["lsos_bfgs"]) == len(runs[3][1]["lsos_bfgs"]) == 7
        assert len(runs[3][1]["saga_ls"]) == 4


class TestRunExperiment:
    def test_output_file_counts(self, tmp_path):
        res = run_experiment(_small_spec(), out_dir=tmp_path)
        traces = list(tmp_path.glob("*_rep*.csv"))
        aggs = list(tmp_path.glob("*_agg_iter.csv"))
        assert len(traces) == 2 * 3  # two solvers, three replications
        assert len(aggs) == 2
        assert (tmp_path / "manifest.txt").exists()
        assert res.out_dir == tmp_path

    def test_same_spec_reruns_identically(self):
        r1 = run_experiment(_small_spec())
        r2 = run_experiment(_small_spec())
        for name in ("lsos", "sgd"):
            for t1, t2 in zip(r1.traces[name], r2.traces[name]):
                assert t1.column("f_hat") == t2.column("f_hat")
                assert t1.column("step_len") == t2.column("step_len")
                assert t1.column("true_error") == t2.column("true_error")

    def test_x0_shared_across_solvers_within_replication(self):
        spec = _small_spec()
        problem, _ = build_problem(spec)
        tr_a = run_replication(problem, spec, "lsos", rep=1)
        tr_b = run_replication(problem, spec, "sgd", rep=1)
        # both start at the same point: identical first-iteration error
        assert tr_a.records[0].true_error == tr_b.records[0].true_error

    def test_manifest_is_a_valid_spec(self, tmp_path):
        run_experiment(_small_spec(), out_dir=tmp_path)
        spec = ExperimentSpec.from_file(tmp_path / "manifest.txt")
        assert spec.get("run.seed") == 99
        assert spec.get("problem.n") == 25

    def test_grid_request_resolved_before_runs(self, tmp_path):
        spec = _small_spec(**{"solver.lsos.t_ini": "grid",
                              "grid.candidates": "1.0,0.5"})
        res = run_experiment(spec, out_dir=tmp_path)
        resolved = res.spec.get("solver.lsos.t_ini")
        assert resolved in (1.0, 0.5)
        # and the manifest carries the resolved value, not the request
        text = (tmp_path / "manifest.txt").read_text()
        assert "solver.lsos.t_ini = grid" not in text

    def test_a_diverged_replication_is_reported_not_raised(self, tmp_path):
        spec = ExperimentSpec.from_mapping({
            "problem.n": "20", "run.solvers": "sgd,lsos", "run.reps": "2",
            "run.max_iters": "10", "solver.sgd.alpha0": "1000"})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_experiment(spec, out_dir=tmp_path)
            aggregate_directory(tmp_path, AGG_BY_TIME)
        for mode in (AGG_BY_ITERATION, AGG_BY_TIME):
            with open(tmp_path / f"sgd_agg_{mode}.csv") as fh:
                last = list(csv.reader(fh))[-1]
            assert last[1:3] == ["inf", "inf"], mode
            with open(tmp_path / f"lsos_agg_{mode}.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row[1:3])

    def test_unresolved_grid_rejected_by_builder(self):
        spec = _small_spec(**{"solver.lsos.t_ini": "grid"})
        with pytest.raises(SpecError, match="unresolved grid"):
            build_solver_config(spec, "lsos")

    def test_worker_pool_matches_sequential(self):
        # the logistic spec also runs its grid pilots in the pool
        logistic = _logistic_spec(**{
            "solver.saga_ls.t_ini": "grid", "solver.lsos_bfgs.t_ini": "grid",
            "grid.candidates": "10,1,1e-1,1e-2"})
        for spec in (_small_spec(**{"run.reps": "2"}), logistic):
            seq = run_experiment(spec)
            par = run_experiment(spec.override(**{"run.workers": "2"}))
            for name in spec.solver_names():
                assert (seq.spec.get(f"solver.{name}.t_ini")
                        == par.spec.get(f"solver.{name}.t_ini"))
                assert len(par.traces[name]) == 2
                for t1, t2 in zip(seq.traces[name], par.traces[name]):
                    for column in ITERATE_COLUMNS:
                        assert t1.column(column) == t2.column(column)
            assert multiprocessing.active_children() == []
        assert seq.spec.get("solver.saga_ls.t_ini") != "grid"

    def test_worker_pool_of_three_matches_sequential(self):
        spec = _logistic_spec(**{
            "solver.saga_ls.t_ini": "grid", "solver.lsos_bfgs.t_ini": "grid",
            "grid.candidates": "10,1,1e-1,1e-2", "run.reps": "3"})
        seq = run_experiment(spec)
        par = run_experiment(spec.override(**{"run.workers": "3"}))
        assert multiprocessing.active_children() == []
        for name in spec.solver_names():
            assert (seq.spec.get(f"solver.{name}.t_ini")
                    == par.spec.get(f"solver.{name}.t_ini") != "grid")
            assert len(par.traces[name]) == 3
            for t1, t2 in zip(seq.traces[name], par.traces[name]):
                for column in ITERATE_COLUMNS:
                    assert t1.column(column) == t2.column(column)

    def test_pool_forks_one_process_fewer_than_it_runs_on(self, monkeypatch):
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        for workers in ("1", "2", "3"):  # 2 solvers x 3 reps: six jobs
            run_experiment(_small_spec(**{"run.workers": workers}))
        # two jobs, so one forked worker beside this process
        run_experiment(_small_spec(**{"run.solvers": "lsos", "run.reps": "2",
                                      "run.workers": "4"}))
        assert started == [1, 2, 1]
        assert multiprocessing.active_children() == []

    def test_spawn_and_forkserver_pools_match_sequential(self):
        # in a child interpreter, so no start method is set in this one
        spec = _logistic_spec(**{
            "solver.saga_ls.t_ini": "grid", "solver.lsos_bfgs.t_ini": "grid",
            "grid.candidates": "10,1,1e-1"})
        script = textwrap.dedent("""
            import json, multiprocessing, sys
            from stochnewton.harness import ExperimentSpec, run_experiment
            method, values, columns = json.loads(sys.argv[1])
            multiprocessing.set_start_method(method)
            spec = ExperimentSpec.from_mapping(values)
            res = run_experiment(spec.override(**{"run.workers": "2"}))
            print(json.dumps({
                "children": len(multiprocessing.active_children()),
                "t_ini": {name: res.spec.get(f"solver.{name}.t_ini")
                          for name in res.spec.solver_names()},
                "traces": {name: [[t.column(c) for c in columns] for t in ts]
                           for name, ts in res.traces.items()}}))
        """)
        seq = run_experiment(spec)
        want = {name: [[t.column(c) for c in ITERATE_COLUMNS] for t in ts]
                for name, ts in seq.traces.items()}
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for method in ("forkserver", "spawn"):
            argv = json.dumps([method, spec.values, ITERATE_COLUMNS])
            done = subprocess.run([sys.executable, "-c", script, argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            got = json.loads(done.stdout)
            assert got["children"] == 0, method
            assert got["t_ini"] == {name: seq.spec.get(f"solver.{name}.t_ini")
                                    for name in spec.solver_names()}, method
            assert got["traces"] == json.loads(json.dumps(want)), method

    @pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                        reason="workers inherit the patched job under fork")
    @pytest.mark.parametrize("side", ["caller", "worker"])
    def test_a_failing_job_stops_its_batch(self, side, monkeypatch):
        # patched before the pool forks, so the worker runs these too
        caller, counters = os.getpid(), []
        ran = multiprocessing.Value("i", 0)  # jobs the other side finished
        stuck = multiprocessing.Value("b", False)  # ... or it waited in vain
        drain, run = harness._drain, harness.run_replication

        def spy(problem, jobs, counter):
            counters.append(counter)
            return drain(problem, jobs, counter)

        def failing(*args, **kwargs):
            here = "caller" if os.getpid() == caller else "worker"
            if here == side:
                raise RuntimeError(f"job {args[2:4]} failed in the {here}")
            # hold this job until the failing side has ended the batch
            deadline = time.monotonic() + 20
            while counters[-1].value < 6:
                if time.monotonic() > deadline:
                    stuck.value = True
                    raise RuntimeError("the batch went on")
                time.sleep(0.005)
            with ran.get_lock():
                ran.value += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "_drain", spy)
        monkeypatch.setattr(harness, "run_replication", failing)
        spec = _small_spec(**{"run.workers": "2"})  # six jobs
        with pytest.raises(RuntimeError, match=f"failed in the {side}"):
            run_experiment(spec)
        assert multiprocessing.active_children() == []
        assert not stuck.value
        assert ran.value <= 1  # only the job it held when the batch ended

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_divergent_pilots_raise_in_pool(self):
        # one huge candidate and one short backtrack overflow the iterate
        spec = ExperimentSpec.from_mapping({
            "problem.kind": "logistic_synthetic", "problem.N": "120",
            "problem.features": "6", "run.solvers": "saga_ls",
            "run.max_epochs": "1", "run.reps": "1", "run.seed": "5",
            "run.workers": "2", "grid.candidates": "1e308",
            "solver.saga_ls.t_ini": "grid", "solver.saga_ls.beta": "0.99",
            "solver.saga_ls.max_backtracks": "1"})
        with pytest.raises(GridSearchError, match="diverged"):
            run_experiment(spec)

    def test_logistic_kind_builds_and_runs(self):
        spec = ExperimentSpec.from_mapping({
            "problem.kind": "logistic_synthetic", "problem.N": "120",
            "problem.features": "6", "run.solvers": "saga_ls",
            "run.max_epochs": "2", "run.reps": "2", "run.seed": "5",
        })
        res = run_experiment(spec)
        assert len(res.traces["saga_ls"]) == 2
        final = res.aggregates[("saga_ls", "iter")].mean_error[-1]
        assert math.isfinite(final)

    def test_solver_problem_kind_mismatch_is_named(self):
        # rejected when the spec loads, before any problem is built
        with pytest.raises(SpecError, match="finite-sum"):
            _small_spec(**{"run.solvers": "lsos_bfgs", "run.max_epochs": "1"})
        with pytest.raises(SpecError, match="noisy-oracle"):
            ExperimentSpec.from_mapping({
                "problem.kind": "logistic_synthetic", "problem.N": "40",
                "problem.features": "3", "run.solvers": "lsos",
                "run.max_iters": "2", "run.reps": "1"})

    def test_libsvm_kind(self, tmp_path):
        data = tmp_path / "toy.libsvm"
        rows = ["+1 1:1.0 2:0.2", "-1 1:-1.0 2:0.1", "+1 1:0.8",
                "-1 2:-0.7", "+1 1:1.2 2:0.4", "-1 1:-0.9 2:-0.2"]
        data.write_text("\n".join(rows) + "\n")
        spec = ExperimentSpec.from_mapping({
            "problem.kind": "libsvm", "problem.path": str(data),
            "problem.mu": "0.05", "run.solvers": "saga_ls",
            "run.max_epochs": "3", "run.reps": "1", "run.seed": "6",
            "solver.saga_ls.batch_size": "2",
        })
        res = run_experiment(spec)
        errs = res.traces["saga_ls"][0].column("true_error")
        assert errs[-1] < errs[0]


class TestAggregateDirectory:
    def test_round_trip(self, tmp_path):
        run_experiment(_small_spec(), out_dir=tmp_path)
        curves = aggregate_directory(tmp_path, AGG_BY_ITERATION)
        assert set(curves) == {"lsos", "sgd"}
        with open(tmp_path / "lsos_agg_iter.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "mean_error", "ci95_half", "mean_time_s"]
        assert len(rows) - 1 == len(curves["lsos"].checkpoints)

    @pytest.mark.parametrize("make_spec", [_small_spec, _logistic_spec])
    def test_time_curves_from_the_directory_match_the_run(self, make_spec,
                                                         tmp_path):
        # run writes no time curve: aggregating its traces gives the one
        # the run's own traces give, byte for byte
        result = run_experiment(make_spec(), out_dir=tmp_path)
        assert not list(tmp_path.glob("*_agg_time.csv"))
        aggregate_directory(tmp_path, AGG_BY_TIME)
        for name, traces in result.traces.items():
            want = io.StringIO()
            aggregate(traces, AGG_BY_TIME).write_csv(want)
            got = (tmp_path / f"{name}_agg_time.csv").read_text()
            assert got == want.getvalue(), name

    def test_solver_name_containing_rep(self, tmp_path):
        # the aggregate file a_rep_agg_iter.csv is not a trace of a_rep
        spec = _small_spec(**{"run.solvers": "a_rep",
                              "solver.a_rep.method": "lsos"})
        run_experiment(spec, out_dir=tmp_path)
        assert (tmp_path / "a_rep_agg_iter.csv").exists()
        curves = aggregate_directory(tmp_path, AGG_BY_ITERATION)
        assert set(curves) == {"a_rep"}
        assert curves["a_rep"].n_runs == 3

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            aggregate_directory(tmp_path)

    def test_reads_only_the_runs_of_the_manifest(self, tmp_path):
        # a second run into one directory deletes the first run's rep02
        run_experiment(_small_spec(), out_dir=tmp_path)
        run_experiment(_small_spec(**{"run.reps": "2", "run.seed": "9"}),
                       out_dir=tmp_path)
        assert not (tmp_path / "lsos_rep02.csv").exists()
        curves = aggregate_directory(tmp_path, AGG_BY_ITERATION)
        assert {curve.n_runs for curve in curves.values()} == {2}
        fresh = run_experiment(_small_spec(**{"run.reps": "2",
                                              "run.seed": "9"}))
        for name, curve in curves.items():
            want = fresh.aggregates[name, AGG_BY_ITERATION]
            assert curve.mean_error.tolist() == want.mean_error.tolist()

    def test_a_rerun_deletes_only_the_outputs_its_manifest_listed(
            self, tmp_path):
        run_experiment(_small_spec(), out_dir=tmp_path)
        aggregate_directory(tmp_path, AGG_BY_TIME)
        assert (tmp_path / "sgd_agg_time.csv").exists()
        (tmp_path / "notes.txt").write_text("kept")
        (tmp_path / "other_rep00.csv").write_text("kept")
        run_experiment(_small_spec(**{"run.solvers": "lsos", "run.reps": "2"}),
                       out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "lsos_agg_iter.csv", "lsos_rep00.csv", "lsos_rep01.csv",
            "manifest.txt", "notes.txt", "other_rep00.csv"]

    def test_missing_trace_is_named(self, tmp_path):
        run_experiment(_small_spec(), out_dir=tmp_path)
        (tmp_path / "sgd_rep01.csv").unlink()
        with pytest.raises(FileNotFoundError, match="sgd_rep01.csv"):
            aggregate_directory(tmp_path)

    def test_trace_without_true_errors_names_file(self, tmp_path):
        spec = _small_spec(**{"run.solvers": "a", "solver.a.method": "lsos",
                              "run.reps": "1"})
        with open(tmp_path / "manifest.txt", "w") as fh:
            write_manifest(spec, None, fh)
        trace = _fake_trace("a-rep00", [3.0, 2.0])
        trace.records[0].true_error = None
        with open(tmp_path / "a_rep00.csv", "w") as fh:
            write_trace_csv(trace, fh)
        with pytest.raises(ValueError, match=r"a_rep00.csv: trace a-rep00 "):
            aggregate_directory(tmp_path)

    def test_short_row_names_file_and_line(self, tmp_path):
        run_experiment(_small_spec(), out_dir=tmp_path)
        path = tmp_path / "sgd_rep01.csv"
        with open(path, "a") as fh:
            fh.write("sgd-rep01,99,1.0,2.0\n")
        line = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=rf"sgd_rep01.csv: line {line}: "
                                             rf"expected 8 fields, got 4"):
            aggregate_directory(tmp_path)
