"""Experiment harness: seeded solver grids over replications, CSV outputs.

An experiment is described by a flat ``section.key = value`` text file (or a
named preset).  The harness builds the problem, resolves per-solver
configurations (including the step-length grid search when requested), runs
``R`` replications per solver, and writes per-run trace CSVs, aggregate
curves with 95% confidence intervals, and a ``manifest.txt`` that is itself
a valid spec file reproducing every iterate-dependent output byte for byte.

Replication ``r`` draws everything from the stream ``(seed, r)``, so runs
are independent of the replication count and can execute in parallel.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .core import RngStream, RunTrace, read_trace_csv, write_trace_csv
from .finitesum import FiniteSumProblem
from .fs_solvers import (FS_METHODS, FsSolverConfig, run_fs_solver)
from .logreg import LogRegModel, generate_synthetic_classification, parse_libsvm
from .solvers import (ALL_METHODS, AUTO_ALPHA0, DeltaSchedule, GainParams,
                      SolverConfig, run_solver)
from .steplen import LineSearchConfig
from .synthetic import (HESS_DENSE, HESS_HOUSEHOLDER, NoisyOracle,
                        exact_solution, generate_problem)

PROBLEM_STREAM_ID = 2 ** 32  # outside the replication id range

GRID_DEFAULT = "1,5e-1,1e-1,5e-2,1e-2,5e-3,1e-3,5e-4,1e-4,5e-5,1e-5"

_PROBLEM_KEYS = {
    "kind": str, "n": int, "kappa": float, "sigma": float, "sigma_pct": float,
    "hess_form": str, "density": float, "N": int, "features": int,
    "separation": float, "feature_condition": float, "mu": float, "path": str,
}
_RUN_KEYS = {
    "solvers": str, "reps": int, "seed": int, "max_iters": int,
    "max_epochs": int, "time_budget_s": float, "grad_tol": float,
    "x0": str, "aggregate": str, "workers": int,
}
_GRID_KEYS = {"candidates": str}
_SOLVER_KEYS = {
    "method": str, "alpha0": str, "T": float,
    "delta": str, "eta": float, "beta": float, "zeta": str, "theta": float,
    "t_ini": str, "t_min": float, "max_backtracks": int, "switch_rule": str,
    "cg_rel_floor": float, "cg_max_iters": int,
    "batch_size": int, "hess_batch_size": int, "batch_scheme": str,
    "m": int, "l": int, "saga_storage": str,
}

DEFAULTS = {
    "problem.kind": "synthetic",
    "problem.n": "200",
    "problem.kappa": "100.0",
    "problem.sigma_pct": "0.1",
    "problem.hess_form": HESS_DENSE,
    "problem.density": "1.0",
    "problem.N": "2000",
    "problem.features": "50",
    "problem.separation": "2.0",
    "problem.feature_condition": "1.0",
    "run.solvers": "lsos",
    "run.reps": "20",
    "run.seed": "20200731",
    "run.max_iters": "50",
    "run.max_epochs": "0",
    "run.time_budget_s": "inf",
    "run.grad_tol": "0.0",
    "run.x0": "auto",
    "run.aggregate": "iter",
    "run.workers": "1",
    "grid.candidates": GRID_DEFAULT,
}

PRESETS = {
    # desk-scale noisy convex comparison: line search vs pre-defined gains
    "fig1-small": {
        "problem.kind": "synthetic", "problem.n": "200",
        "problem.kappa": "100.0", "problem.sigma_pct": "0.1",
        "problem.hess_form": HESS_DENSE,
        "run.solvers": "lsos,sos,sgd", "run.max_iters": "50", "run.reps": "20",
    },
    # factored Hessian + CG: exact vs inexact Newton systems
    "fig2-small": {
        "problem.kind": "synthetic", "problem.n": "2000",
        "problem.kappa": "100.0", "problem.sigma_pct": "0.1",
        "problem.hess_form": HESS_HOUSEHOLDER,
        "run.solvers": "lsos,lsos_inexact,sgd_ls",
        "run.max_iters": "250", "run.reps": "20",
    },
    # finite sums: quasi-Newton vs first-order SAGA, both line-searched
    "fig3-synthetic": {
        "problem.kind": "logistic_synthetic", "problem.N": "2000",
        "problem.features": "50", "problem.separation": "2.0",
        "problem.feature_condition": "100.0",
        "run.solvers": "lsos_bfgs,saga_ls",
        "run.max_epochs": "10", "run.reps": "20",
        "solver.lsos_bfgs.t_ini": "grid",
        "solver.saga_ls.t_ini": "grid",
    },
}


class SpecError(ValueError):
    """Spec-file validation failure; the message names the offending key."""


@dataclass
class ExperimentSpec:
    """A fully resolved flat configuration."""

    values: dict

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentSpec":
        values = dict(DEFAULTS)
        for key, value in mapping.items():
            _validate_key(str(key))
            values[str(key)] = str(value)
        spec = cls(values)
        spec.solver_names()  # validates solver list and methods
        return spec

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)

    @classmethod
    def from_preset(cls, name: str) -> "ExperimentSpec":
        if name not in PRESETS:
            raise SpecError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
        return cls.from_mapping(PRESETS[name])

    def override(self, **kv) -> "ExperimentSpec":
        mapping = dict(self.values)
        for key, value in kv.items():
            mapping[key] = str(value)
        return ExperimentSpec.from_mapping(mapping)

    # typed accessors ------------------------------------------------------

    def get(self, key: str):
        if key not in self.values:
            return None
        raw = self.values[key]
        typ = _key_type(key)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw

    def solver_names(self) -> list[str]:
        names = [s.strip() for s in self.values["run.solvers"].split(",") if s.strip()]
        if not names:
            raise SpecError("run.solvers: empty solver list")
        for name in names:
            method = self.values.get(f"solver.{name}.method", name)
            if method not in ALL_METHODS + FS_METHODS:
                raise SpecError(f"solver.{name}.method: unknown method {method!r}")
        return names

    def solver_method(self, name: str) -> str:
        return self.values.get(f"solver.{name}.method", name)

    def solver_get(self, name: str, param: str, default=None):
        key = f"solver.{name}.{param}"
        if key in self.values:
            raw = self.values[key]
            typ = _SOLVER_KEYS[param]
            if typ is int:
                return int(raw)
            if typ is float:
                return float(raw)
            return raw
        return default


def _key_type(key: str):
    parts = key.split(".")
    if parts[0] == "problem":
        return _PROBLEM_KEYS.get(parts[1], str)
    if parts[0] == "run":
        return _RUN_KEYS.get(parts[1], str)
    if parts[0] == "grid":
        return _GRID_KEYS.get(parts[1], str)
    return str


def _validate_key(key: str) -> None:
    parts = key.split(".")
    if parts[0] == "problem" and len(parts) == 2 and parts[1] in _PROBLEM_KEYS:
        return
    if parts[0] == "run" and len(parts) == 2 and parts[1] in _RUN_KEYS:
        return
    if parts[0] == "grid" and len(parts) == 2 and parts[1] in _GRID_KEYS:
        return
    if parts[0] == "solver" and len(parts) == 3 and parts[2] in _SOLVER_KEYS:
        return
    raise SpecError(f"unknown configuration key {key!r}")


# -- problem construction ------------------------------------------------------


def build_problem(spec: ExperimentSpec):
    """Build the problem instance (deterministic in ``run.seed``) and its
    reference optimum.  Returns ``(problem, kind)``."""
    kind = spec.get("problem.kind")
    seed = spec.get("run.seed")
    rng = RngStream(seed, PROBLEM_STREAM_ID)
    if kind == "synthetic":
        kappa = spec.get("problem.kappa")
        sigma = spec.get("problem.sigma")
        if sigma is None:
            sigma = spec.get("problem.sigma_pct") / 100.0 * kappa
        problem = generate_problem(
            n=spec.get("problem.n"), kappa=kappa, sigma=sigma,
            hess_form=spec.get("problem.hess_form"),
            density=spec.get("problem.density"), rng=rng)
        exact_solution(problem)
        return problem, kind
    if kind == "logistic_synthetic":
        dataset = generate_synthetic_classification(
            spec.get("problem.N"), spec.get("problem.features"),
            spec.get("problem.separation"), rng,
            feature_condition=spec.get("problem.feature_condition"))
        model = LogRegModel(dataset, mu=spec.get("problem.mu"))
        model.reference_optimum()
        return model, kind
    if kind == "libsvm":
        path = spec.get("problem.path")
        if not path:
            raise SpecError("problem.path: required for kind=libsvm")
        model = LogRegModel(parse_libsvm(path), mu=spec.get("problem.mu"))
        model.reference_optimum()
        return model, kind
    raise SpecError(f"problem.kind: unknown kind {kind!r}")


def _parse_delta(raw: Optional[str], method: str) -> DeltaSchedule:
    if raw is None:
        if method == "lsos_inexact":
            return DeltaSchedule("geometric", rho=0.95)
        return DeltaSchedule("zero")
    if raw == "zero":
        return DeltaSchedule("zero")
    if raw.startswith("geometric"):
        rho = float(raw.split(":", 1)[1]) if ":" in raw else 0.95
        return DeltaSchedule("geometric", rho=rho)
    if raw.startswith("constant"):
        return DeltaSchedule("constant", value=float(raw.split(":", 1)[1]))
    raise SpecError(f"bad delta spec {raw!r}")


def _line_search_config(spec: ExperimentSpec, name: str, method: str) -> LineSearchConfig:
    theta_default = 0.999 if method in FS_METHODS else 0.9
    zeta = spec.solver_get(name, "zeta", "geometric")
    t_ini = spec.solver_get(name, "t_ini", "1.0")
    return LineSearchConfig(
        eta=spec.solver_get(name, "eta", 1e-4),
        beta=spec.solver_get(name, "beta", 0.5),
        zeta_kind=zeta,
        theta=spec.solver_get(name, "theta", theta_default),
        t_start=float(t_ini),
        max_backtracks=spec.solver_get(name, "max_backtracks", 60),
        t_min=spec.solver_get(name, "t_min", 1e-3),
        switch_rule=spec.solver_get(name, "switch_rule", "step_norm"),
    )


def build_solver_config(spec: ExperimentSpec, name: str):
    """Resolve one solver block into a SolverConfig / FsSolverConfig."""
    method = spec.solver_method(name)
    if spec.solver_get(name, "t_ini", "1.0") == "grid":
        raise SpecError(f"solver.{name}.t_ini: unresolved grid request")
    if method in ALL_METHODS:
        alpha0_raw = spec.solver_get(name, "alpha0", AUTO_ALPHA0)
        alpha0 = alpha0_raw if alpha0_raw == AUTO_ALPHA0 else float(alpha0_raw)
        max_iters = spec.get("run.max_iters")
        return SolverConfig(
            method=method,
            gain=GainParams(alpha0=alpha0, T=spec.solver_get(name, "T", 1e6)),
            ls=_line_search_config(spec, name, method),
            delta=_parse_delta(spec.solver_get(name, "delta"), method),
            cg_rel_floor=spec.solver_get(name, "cg_rel_floor", 1e-6),
            cg_max_iters=spec.solver_get(name, "cg_max_iters"),
            max_iters=max_iters,
            time_budget_s=spec.get("run.time_budget_s"),
            grad_tol=spec.get("run.grad_tol") or None,
        )
    max_epochs = spec.get("run.max_epochs") or None
    max_iters = None if max_epochs else spec.get("run.max_iters")
    return FsSolverConfig(
        method=method,
        ls=_line_search_config(spec, name, method),
        delta=_parse_delta(spec.solver_get(name, "delta"), method),
        batch_size=spec.solver_get(name, "batch_size"),
        hess_batch_size=spec.solver_get(name, "hess_batch_size"),
        batch_scheme=spec.solver_get(name, "batch_scheme"),
        m=spec.solver_get(name, "m", 10),
        l=spec.solver_get(name, "l", 5),
        saga_storage=spec.solver_get(name, "saga_storage", "dense"),
        cg_rel_floor=spec.solver_get(name, "cg_rel_floor", 1e-6),
        cg_max_iters=spec.solver_get(name, "cg_max_iters"),
        max_epochs=max_epochs,
        max_iters=max_iters,
        time_budget_s=spec.get("run.time_budget_s"),
        grad_tol=spec.get("run.grad_tol") or None,
    )


def initial_point(spec: ExperimentSpec, problem, kind: str, rep_stream: RngStream):
    policy = spec.get("run.x0")
    if policy == "auto":
        policy = "gauss5" if kind == "synthetic" else "zeros"
    if policy == "gauss5":
        return rep_stream.child(0).normal(0.0, 5.0, problem.n)
    if policy == "zeros":
        return np.zeros(problem.n)
    raise SpecError(f"run.x0: unknown policy {policy!r}")


def run_replication(problem, kind: str, spec: ExperimentSpec, name: str,
                    rep: int) -> RunTrace:
    """One (solver, replication) run; fully determined by ``(seed, rep)``."""
    rep_stream = RngStream(spec.get("run.seed"), rep)
    x0 = initial_point(spec, problem, kind, rep_stream)
    cfg = build_solver_config(spec, name)
    if isinstance(cfg, FsSolverConfig):
        if not isinstance(problem, FiniteSumProblem):
            raise SpecError(f"solver.{name}: finite-sum method "
                            f"{cfg.method!r} needs a finite-sum problem, "
                            f"got problem.kind = {kind!r}")
        f_star = problem.f_star if isinstance(problem, LogRegModel) else None
        result = run_fs_solver(problem, cfg, x0, rep_stream.child(1), f_star=f_star)
    else:
        if kind != "synthetic":
            raise SpecError(f"solver.{name}: noisy-oracle method "
                            f"{cfg.method!r} needs problem.kind = synthetic, "
                            f"got {kind!r}")
        oracle = NoisyOracle(problem, rep_stream.child(1))
        result = run_solver(oracle, cfg, x0)
    result.trace.run_id = f"{name}-rep{rep:02d}"
    return result.trace


# -- aggregation ---------------------------------------------------------------

AGG_BY_ITERATION = "iter"
AGG_BY_TIME = "time"


@dataclass
class AggregateCurve:
    mode: str
    checkpoints: np.ndarray
    mean_error: np.ndarray
    ci_half: np.ndarray
    mean_time: Optional[np.ndarray]
    n_runs: int

    def write_csv(self, fh) -> None:
        if self.mode == AGG_BY_ITERATION:
            fh.write("iter,mean_error,ci95_half,mean_time_s\n")
            for i in range(len(self.checkpoints)):
                fh.write(f"{int(self.checkpoints[i])},{float(self.mean_error[i])!r},"
                         f"{float(self.ci_half[i])!r},{float(self.mean_time[i])!r}\n")
        else:
            fh.write("time_s,mean_error,ci95_half\n")
            for i in range(len(self.checkpoints)):
                fh.write(f"{float(self.checkpoints[i])!r},{float(self.mean_error[i])!r},"
                         f"{float(self.ci_half[i])!r}\n")


def _trace_errors(trace: RunTrace) -> np.ndarray:
    vals = [r.true_error if r.true_error is not None else r.f_hat
            for r in trace.records]
    return np.asarray(vals, dtype=np.float64)


def aggregate(traces: list[RunTrace], mode: str = AGG_BY_ITERATION,
              time_buckets: int = 100) -> AggregateCurve:
    """Mean error and normal-approximation 95% CI across replications.

    ``iter`` mode aligns runs on the iteration counter (truncated to the
    shortest run); ``time`` mode interpolates each run's error onto a common
    grid of ``time_buckets`` points spanning the shortest run's horizon.
    Input order does not matter: traces are sorted by ``run_id`` first.
    """
    if not traces:
        raise ValueError("no traces to aggregate")
    prefixes = {t.run_id.rsplit("-rep", 1)[0] for t in traces}
    if len(prefixes) > 1:
        raise ValueError(f"refusing to aggregate mixed runs: {sorted(prefixes)}")
    traces = sorted(traces, key=lambda t: t.run_id)
    R = len(traces)
    z = 1.96

    if mode == AGG_BY_ITERATION:
        n_common = min(len(t) for t in traces)
        errors = np.stack([_trace_errors(t)[:n_common] for t in traces])
        times = np.stack([np.asarray(t.column("wall_time_s")[:n_common])
                          for t in traces])
        iters = np.asarray(traces[0].column("iter")[:n_common])
        mean = errors.mean(axis=0)
        sd = errors.std(axis=0, ddof=1) if R > 1 else np.zeros(n_common)
        return AggregateCurve(mode, iters, mean, z * sd / math.sqrt(R),
                              times.mean(axis=0), R)

    if mode == AGG_BY_TIME:
        horizon = min(t.records[-1].wall_time_s for t in traces)
        grid = np.linspace(0.0, horizon, time_buckets)
        interp = np.stack([
            np.interp(grid, np.asarray(t.column("wall_time_s")), _trace_errors(t))
            for t in traces
        ])
        mean = interp.mean(axis=0)
        sd = interp.std(axis=0, ddof=1) if R > 1 else np.zeros(len(grid))
        return AggregateCurve(mode, grid, mean, z * sd / math.sqrt(R), None, R)

    raise ValueError(f"unknown aggregation mode {mode!r}")


# -- step-length grid search ---------------------------------------------------


class GridSearchError(RuntimeError):
    pass


def grid_search_step(run_candidate, candidates) -> tuple[float, dict]:
    """Pick the candidate with the lowest pilot-run final error.

    ``run_candidate(t_ini)`` returns the pilot's final error (non-finite
    marks divergence).  Ties break toward the larger step.  If every
    candidate diverges a :class:`GridSearchError` lists the diagnostics.
    """
    candidates = sorted(set(float(c) for c in candidates), reverse=True)
    if not candidates:
        raise ValueError("empty candidate set")
    results = {}
    best, best_err = None, math.inf
    for cand in candidates:
        err = float(run_candidate(cand))
        results[cand] = err
        if math.isfinite(err) and err < best_err:
            best, best_err = cand, err
    if best is None:
        raise GridSearchError(f"all step candidates diverged: {results}")
    return best, results


def resolve_grid_searches(spec: ExperimentSpec, problem, kind: str,
                          pool=None) -> ExperimentSpec:
    """Replace every ``t_ini = grid`` by its pilot-selected value (rep 0).

    The pilots of all grid-searched solvers run as one batch of jobs, in
    `pool` (see :func:`run_experiment`) when given, else here one after
    another; the selection does not depend on where they ran.
    """
    candidates = sorted({float(c) for c in spec.get("grid.candidates").split(",")},
                        reverse=True)
    names = [name for name in spec.solver_names()
             if spec.solver_get(name, "t_ini", "1.0") == "grid"]
    pilots = [(name, t_ini) for name in names for t_ini in candidates]
    jobs = [(spec.override(**{f"solver.{name}.t_ini": repr(t_ini)}), name, 0)
            for name, t_ini in pilots]
    final_error = {pilot: _trace_errors(trace)[-1] for pilot, trace
                   in zip(pilots, _run_jobs(problem, kind, jobs, pool))}
    resolved = spec
    for name in names:
        best, _ = grid_search_step(lambda t_ini, name=name: final_error[name, t_ini],
                                   candidates)
        resolved = resolved.override(**{f"solver.{name}.t_ini": repr(best)})
    return resolved


# -- experiment driver ----------------------------------------------------------


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    traces: dict = field(default_factory=dict)      # solver -> [RunTrace]
    aggregates: dict = field(default_factory=dict)  # (solver, mode) -> curve
    out_dir: Optional[Path] = None


_WORKER_STATE: dict = {}


def _worker_init(values: dict):
    problem, kind = build_problem(ExperimentSpec(dict(values)))
    _WORKER_STATE["problem"] = problem
    _WORKER_STATE["kind"] = kind


def _worker_run(job):
    spec, name, rep = job
    return run_replication(_WORKER_STATE["problem"], _WORKER_STATE["kind"],
                           spec, name, rep)


def _run_jobs(problem, kind: str, jobs, pool=None) -> list[RunTrace]:
    """Traces of ``(spec, solver name, rep)`` jobs, in job order.

    Pool workers build their own copy of the (deterministic) problem, so a
    job's trace does not depend on where it ran.
    """
    if pool is not None:
        return list(pool.map(_worker_run, jobs))
    return [run_replication(problem, kind, spec, name, rep)
            for spec, name, rep in jobs]


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Run the full grid; write traces, aggregates and the manifest.

    With ``run.workers > 1`` one process pool runs the grid pilots and then
    the replications.
    """
    problem, kind = build_problem(spec)
    reps = spec.get("run.reps")
    if reps < 1:
        raise SpecError("run.reps must be >= 1")
    workers = spec.get("run.workers")
    opened = (concurrent.futures.ProcessPoolExecutor(
                  max_workers=workers, initializer=_worker_init,
                  initargs=(spec.values,))
              if workers > 1 else contextlib.nullcontext())
    with opened as pool:
        spec = resolve_grid_searches(spec, problem, kind, pool)
        names = spec.solver_names()
        jobs = [(spec, name, rep) for name in names for rep in range(reps)]
        traces = _run_jobs(problem, kind, jobs, pool)
    result = ExperimentResult(spec=spec)
    for (_, name, _), trace in zip(jobs, traces):
        result.traces.setdefault(name, []).append(trace)

    modes = {"iter": [AGG_BY_ITERATION], "time": [AGG_BY_TIME],
             "both": [AGG_BY_ITERATION, AGG_BY_TIME]}[spec.get("run.aggregate")]
    for name in names:
        for mode in modes:
            result.aggregates[(name, mode)] = aggregate(result.traces[name], mode)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            for rep, trace in enumerate(result.traces[name]):
                with open(out / f"{name}_rep{rep:02d}.csv", "w") as fh:
                    write_trace_csv(trace, fh)
            for mode in modes:
                with open(out / f"{name}_agg_{mode}.csv", "w") as fh:
                    result.aggregates[(name, mode)].write_csv(fh)
        with open(out / "manifest.txt", "w") as fh:
            write_manifest(spec, problem, fh)
        result.out_dir = out
    return result


def write_manifest(spec: ExperimentSpec, problem, fh) -> None:
    """The resolved spec, re-runnable as-is; CI construction documented."""
    fh.write(f"# stochnewton {__version__} experiment manifest\n")
    fh.write("# aggregate CI: normal approximation, mean +- 1.96 s/sqrt(R)\n")
    meta = getattr(problem, "metadata", None)
    if meta is not None:
        fh.write(f"# problem: {meta()}\n")
    for key in sorted(spec.values):
        fh.write(f"{key} = {spec.values[key]}\n")


def aggregate_directory(directory, mode: str = AGG_BY_ITERATION) -> dict:
    """Group ``<solver>_rep*.csv`` traces in `directory` and aggregate them."""
    directory = Path(directory)
    groups: dict[str, list[RunTrace]] = {}
    for path in sorted(directory.glob("*_rep*.csv")):
        with open(path, "r") as fh:
            trace = read_trace_csv(fh)
        groups.setdefault(path.name.rsplit("_rep", 1)[0], []).append(trace)
    if not groups:
        raise FileNotFoundError(f"no trace CSVs found under {directory}")
    curves = {}
    for name, traces in groups.items():
        curve = aggregate(traces, mode)
        with open(directory / f"{name}_agg_{mode}.csv", "w") as fh:
            curve.write_csv(fh)
        curves[name] = curve
    return curves
