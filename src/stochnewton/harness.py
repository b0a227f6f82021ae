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
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .core import RngStream, RunTrace, read_trace_csv, write_trace_csv
from .fs_solvers import run_fs_solver
from .logreg import LogRegModel, generate_synthetic_classification, parse_libsvm
from .solvers import (AUTO_ALPHA0, DELTA_CONSTANT, DELTA_GEOMETRIC, DELTA_ZERO,
                      FS_METHODS, METHOD_LSOS, METHOD_LSOS_BFGS, METHOD_LSOS_FS,
                      METHOD_LSOS_INEXACT, METHOD_SAGA_LS, METHOD_SGD,
                      METHOD_SGD_LS, METHOD_SOS, NOISY_METHODS, DeltaSchedule,
                      SolverConfig, run_solver)
from .synthetic import (HESS_DENSE, HESS_HOUSEHOLDER, NoisyOracle,
                        exact_solution, generate_problem)

PROBLEM_STREAM_ID = 2 ** 32  # outside the replication id range

GRID_DEFAULT = "1,5e-1,1e-1,5e-2,1e-2,5e-3,1e-3,5e-4,1e-4,5e-5,1e-5"
GRID = "grid"  # the t_ini value that asks for the step-length grid search

AGG_BY_ITERATION = "iter"
AGG_BY_TIME = "time"
CI_Z = 1.96  # the normal quantile of every aggregate's 95% half-width
_TRACE_NAME = "{}_rep{:02d}.csv"  # the trace file of (solver, rep)
_AGG_NAME = "{}_agg_{}.csv"  # the aggregate curve of (solver, mode)

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


# -- the spec schema -------------------------------------------------------------


def _int_min(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return parse


def _float_min(low: float, *, strict: bool = False,
               finite: bool = True) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        value = float(raw)
        if finite and not math.isfinite(value):
            raise ValueError("must be finite")
        if not (value > low if strict else value >= low):  # NaN fails too
            raise ValueError(f"must be {'>' if strict else '>='} {low:g}")
        return value
    return parse


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected {' | '.join(options)}")
        return raw
    return parse


def _float_or(word: str) -> Callable[[str], object]:
    return lambda raw: raw if raw == word else float(raw)


_positive = _float_min(0, strict=True)


def _positives(raw: str) -> tuple:
    return tuple(_positive(c) for c in raw.split(","))


def _names(raw: str) -> tuple:
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ValueError("empty solver list")
    for name in names:  # each names its output files inside --out
        if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
            raise ValueError(f"solver name {name!r} is not [A-Za-z0-9_-]+")
    if len(set(names)) < len(names):
        raise ValueError("a solver name is repeated")
    return names


def _delta(raw: str) -> DeltaSchedule:
    kind, colon, arg = raw.partition(":")
    if kind == DELTA_ZERO and not colon:
        return DeltaSchedule(kind)
    if kind == DELTA_GEOMETRIC:
        return DeltaSchedule(kind, rho=float(arg)) if colon else DeltaSchedule(kind)
    if kind == DELTA_CONSTANT and colon:
        return DeltaSchedule(kind, value=float(arg))
    raise ValueError("expected zero | geometric[:rho] | constant:value")


class _Key(NamedTuple):
    parse: Callable[[str], object]
    default: Optional[str] = None  # the raw value a spec starts from
    field: str = ""  # solver params: the config field set ("<f>" or "ls.<f>")


# Every spec key, once.  ``solver.*.<param>`` stands for any solver name;
# solver params default to those of the method.  Solver rows apply in this
# order (zeta before theta: theta is checked only for the geometric slack).
SCHEMA = {
    "problem.kind": _Key(_choice("synthetic", "logistic_synthetic", "libsvm"),
                         "synthetic"),
    "problem.n": _Key(_int_min(1), "200"),
    "problem.kappa": _Key(_float_min(1, strict=True), "100.0"),
    "problem.sigma": _Key(_float_min(0)),
    "problem.sigma_pct": _Key(_float_min(0), "0.1"),
    "problem.hess_form": _Key(_choice(HESS_DENSE, HESS_HOUSEHOLDER), HESS_DENSE),
    "problem.N": _Key(_int_min(1), "2000"),
    "problem.features": _Key(_int_min(1), "50"),
    "problem.separation": _Key(_float_min(-math.inf), "2.0"),
    "problem.feature_condition": _Key(_float_min(1), "1.0"),
    "problem.mu": _Key(_positive),
    "problem.path": _Key(str),
    "run.solvers": _Key(_names, "lsos"),
    "run.reps": _Key(_int_min(1), "20"),
    "run.seed": _Key(_int_min(0), "20200731"),
    "run.max_iters": _Key(_int_min(1), "50"),
    "run.max_epochs": _Key(_int_min(0), "0"),
    "run.time_budget_s": _Key(_float_min(0, strict=True, finite=False), "inf"),
    "run.grad_tol": _Key(_float_min(0), "0.0"),
    "run.x0": _Key(_choice("auto", "gauss5", "zeros"), "auto"),
    "run.aggregate": _Key(_choice(AGG_BY_ITERATION, AGG_BY_TIME, "both"), "iter"),
    "run.workers": _Key(_int_min(1), "1"),
    "grid.candidates": _Key(_positives, GRID_DEFAULT),
    "solver.*.method": _Key(_choice(*NOISY_METHODS, *FS_METHODS)),
    "solver.*.alpha0": _Key(_float_or(AUTO_ALPHA0), field="alpha0"),
    "solver.*.T": _Key(float, field="T"),
    "solver.*.delta": _Key(_delta, field="delta"),
    "solver.*.eta": _Key(float, field="ls.eta"),
    "solver.*.beta": _Key(float, field="ls.beta"),
    "solver.*.zeta": _Key(str, field="ls.zeta_kind"),
    "solver.*.theta": _Key(float, field="ls.theta"),
    "solver.*.t_ini": _Key(_float_or(GRID), field="ls.t_start"),
    "solver.*.t_min": _Key(float, field="ls.t_min"),
    "solver.*.max_backtracks": _Key(int, field="ls.max_backtracks"),
    "solver.*.switch_rule": _Key(str, field="ls.switch_rule"),
    "solver.*.batch_size": _Key(_int_min(1), field="batch_size"),
    "solver.*.hess_batch_size": _Key(_int_min(1), field="hess_batch_size"),
    "solver.*.m": _Key(_int_min(1), field="m"),
    "solver.*.l": _Key(_int_min(1), field="l"),
    "solver.*.saga_storage": _Key(_choice("loss_split"), field="saga_storage"),
}
DEFAULTS = {key: row.default for key, row in SCHEMA.items() if row.default}

# The solver params each method reads, by config field or group; a spec
# setting any other is rejected.  Line searches read T but never alpha0.
_SAGA = ("ls", "batch_size", "saga_storage")
_READS = {
    METHOD_SOS: ("alpha0", "T", "delta"),
    METHOD_LSOS: ("T", "ls", "delta"),
    METHOD_LSOS_INEXACT: ("T", "ls", "delta"),
    METHOD_SGD: ("alpha0", "T"),
    METHOD_SGD_LS: ("T", "ls"),
    METHOD_LSOS_FS: ("ls", "delta", "batch_size"),
    METHOD_LSOS_BFGS: (*_SAGA, "hess_batch_size", "m", "l"),
    METHOD_SAGA_LS: _SAGA,
}


def _schema_key(key: str) -> str:
    section, *rest = key.split(".")
    return f"solver.*.{rest[1]}" if section == "solver" and len(rest) == 2 else key


@dataclass
class ExperimentSpec:
    """A fully resolved flat configuration, checked when it is made.

    ``values`` keeps the raw strings (the manifest writes them back);
    :meth:`get` returns the values the schema parsed from them.  Every key
    and value is checked here, every solver config is built and must fit
    ``problem.kind``; each failure is a :class:`SpecError` naming its key.
    """

    values: dict
    _parsed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._parsed = {}
        for key, raw in self.values.items():
            row = SCHEMA.get(_schema_key(key))
            if row is None:
                raise SpecError(f"unknown configuration key {key!r}")
            try:
                if set(key + raw) & set("#\n\r"):  # a manifest cannot hold it
                    raise ValueError("'#' and line breaks cannot appear in a spec")
                self._parsed[key] = row.parse(raw)
            except ValueError as exc:
                raise SpecError(f"{key} = {raw}: {exc}") from None
        kind = self.get("problem.kind")
        if kind == "libsvm" and not self.get("problem.path"):
            raise SpecError("problem.path: required for problem.kind = libsvm")
        names = self.solver_names()
        blocks = {key.split(".")[1] for key in self.values if key.startswith("solver.")}
        for name in names + sorted(blocks - set(names)):
            method = self.solver_method(name)
            if method not in NOISY_METHODS + FS_METHODS:
                # so solver.<name>.method is unset: a set one parses to a method
                where = "run.solvers" if name in names else f"solver.{name}"
                raise SpecError(f"{where}: unknown method {method!r}; "
                                f"set solver.{name}.method")
            _solver_config(self, name)
            if name in names and (method in NOISY_METHODS) != (kind == "synthetic"):
                family = "noisy-oracle" if method in NOISY_METHODS else "finite-sum"
                raise SpecError(f"run.solvers: {name} runs the {family} method "
                                f"{method!r}, which does not fit "
                                f"problem.kind = {kind}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentSpec":
        # stripped as a spec file's lines are, so a manifest reads back as set
        return cls({**DEFAULTS, **{str(k): str(v).strip() for k, v in mapping.items()}})

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        mapping, first_line = {}, {}
        with open(path, "r", encoding="utf-8-sig") as fh:  # BOM or none
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in first_line:
                    raise SpecError(f"{path}:{lineno}: {key} is already set "
                                    f"on line {first_line[key]}")
                first_line[key] = lineno
                mapping[key] = value
        return cls.from_mapping(mapping)

    @classmethod
    def from_preset(cls, name: str) -> "ExperimentSpec":
        if name not in PRESETS:
            raise SpecError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
        return cls.from_mapping(PRESETS[name])

    def override(self, **kv) -> "ExperimentSpec":
        return ExperimentSpec.from_mapping({**self.values, **kv})

    def get(self, key: str):
        """The parsed value of `key`, or None when the spec does not set it."""
        return self._parsed.get(key)

    def solver_names(self) -> list[str]:
        return list(self.get("run.solvers"))

    def solver_method(self, name: str) -> str:
        return self.get(f"solver.{name}.method") or name


def _solver_config(spec: ExperimentSpec, name: str):
    """The config of solver `name`, with a ``t_ini = grid`` request left out."""
    method = spec.solver_method(name)
    # only finite sums have epochs; run.max_epochs = 0 sets no epoch budget
    epochs = spec.get("run.max_epochs") if method in FS_METHODS else 0
    cfg = SolverConfig(method=method, max_epochs=epochs or None,
                       max_iters=None if epochs else spec.get("run.max_iters"),
                       time_budget_s=spec.get("run.time_budget_s"),
                       grad_tol=spec.get("run.grad_tol") or None)
    for row_key, row in SCHEMA.items():
        key = row_key.replace("*", name)
        value = spec.get(key)
        if not row.field or value is None:
            continue
        owner, _, attr = row.field.rpartition(".")
        if row.field not in _READS[method] and owner not in _READS[method]:
            raise SpecError(f"{key}: method {method!r} has no such setting")
        if value == GRID:
            continue
        if row.field == "saga_storage":
            # the problem chooses its SAGA table; the key sets nothing and
            # goes once no spec names it (ROADMAP 11(b))
            continue
        try:
            if owner:
                value = replace(getattr(cfg, owner), **{attr: value})
            cfg = replace(cfg, **{owner or attr: value})
        except ValueError as exc:
            raise SpecError(f"{key} = {spec.values[key]}: {exc}") from None
    return cfg


def build_solver_config(spec: ExperimentSpec, name: str):
    """Resolve one solver block into a :class:`SolverConfig`.

    Only the keys the spec sets are applied; every other field keeps the
    default that the solver's method gives it.
    """
    if spec.get(f"solver.{name}.t_ini") == GRID:
        raise SpecError(f"solver.{name}.t_ini: unresolved grid request")
    return _solver_config(spec, name)


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
            hess_form=spec.get("problem.hess_form"), rng=rng)
        exact_solution(problem)
        return problem, kind
    if kind == "logistic_synthetic":
        dataset = generate_synthetic_classification(
            spec.get("problem.N"), spec.get("problem.features"),
            spec.get("problem.separation"), rng,
            feature_condition=spec.get("problem.feature_condition"))
    else:
        dataset = parse_libsvm(spec.get("problem.path"))
    model = LogRegModel(dataset, mu=spec.get("problem.mu"))
    model.reference_optimum()
    return model, kind


def initial_point(spec: ExperimentSpec, problem, rep_stream: RngStream):
    policy = spec.get("run.x0")
    if policy == "auto":
        policy = "gauss5" if spec.get("problem.kind") == "synthetic" else "zeros"
    if policy == "gauss5":
        return rep_stream.child(0).normal(0.0, 5.0, problem.n)
    return np.zeros(problem.n)


def run_replication(problem, spec: ExperimentSpec, name: str, rep: int,
                    pilot: bool = False) -> RunTrace | float:
    """One (solver, replication) run; fully determined by ``(seed, rep)``.

    Returns the run's trace, with true errors.  A grid pilot records none
    and returns its score instead: the exact error at the iterate its run
    returns, ``inf`` when the run diverged and ``nan`` when it recorded
    nothing.  Its iterates are those of the full run.
    """
    rep_stream = RngStream(spec.get("run.seed"), rep)
    x0 = initial_point(spec, problem, rep_stream)
    cfg = build_solver_config(spec, name)
    f_star = None if pilot else problem.f_star
    if cfg.method in FS_METHODS:
        result = run_fs_solver(problem, cfg, x0, rep_stream.child(1), f_star)
        error_at = lambda x: problem.objectives([x])[0] - problem.f_star
    else:
        oracle = NoisyOracle(problem, rep_stream.child(1))
        result = run_solver(oracle, cfg, x0, f_star)
        error_at = lambda x: oracle.true_error(x, problem.f_star)
    if not pilot:
        result.trace.run_id = f"{name}-rep{rep:02d}"
        return result.trace
    if result.stop_reason == "diverged":
        return math.inf
    return float(error_at(result.x)) if result.trace.records else math.nan


# -- aggregation ---------------------------------------------------------------


@dataclass
class AggregateCurve:
    mode: str
    checkpoints: np.ndarray
    mean_error: np.ndarray
    ci_half: np.ndarray
    mean_time: Optional[np.ndarray]
    n_runs: int

    def write_csv(self, fh) -> None:
        by_iter = self.mode == AGG_BY_ITERATION
        fh.write("iter,mean_error,ci95_half,mean_time_s\n" if by_iter
                 else "time_s,mean_error,ci95_half\n")
        columns = [c for c in (self.mean_error, self.ci_half, self.mean_time)
                   if c is not None]
        for point, *row in zip(self.checkpoints, *columns):
            cells = (int(point) if by_iter else float(point), *map(float, row))
            fh.write(",".join(map(repr, cells)) + "\n")


def _trace_errors(trace: RunTrace) -> np.ndarray:
    errors = trace.column("true_error")
    if None in errors:
        raise ValueError(f"trace {trace.run_id} has records without a true error")
    return np.asarray(errors, dtype=np.float64)


def _mean_ci(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and half-width ``CI_Z * s / sqrt(R)`` (0 at R = 1)
    of ``(R, m)`` errors; both ``inf`` where a run's error is not finite."""
    R = len(errors)
    with np.errstate(invalid="ignore"):  # inf - inf in a diverged column
        mean = errors.mean(axis=0)
        sd = errors.std(axis=0, ddof=1) if R > 1 else np.zeros(errors.shape[1])
    half = CI_Z * sd / math.sqrt(R)
    diverged = ~np.isfinite(errors).all(axis=0)
    mean[diverged] = half[diverged] = math.inf
    return mean, half


def aggregate(traces: list[RunTrace], mode: str = AGG_BY_ITERATION,
              time_buckets: int = 100) -> AggregateCurve:
    """Mean error and normal-approximation 95% CI across replications.

    Runs are placed on the mode's checkpoints (``iter``: the shortest run's
    iterations; ``time``: ``time_buckets`` points over the shortest run's
    horizon; none if a run has no record) for :func:`_mean_ci`: a diverged
    run reads ``inf``.  Traces sort by ``run_id``; a record without a true
    error (a run without ``f_star``) raises ``ValueError``.
    """
    if not traces:
        raise ValueError("no traces to aggregate")
    prefixes = {t.run_id.rsplit("-rep", 1)[0] for t in traces}
    if len(prefixes) > 1:
        raise ValueError(f"refusing to aggregate mixed runs: {sorted(prefixes)}")
    traces = sorted(traces, key=lambda t: t.run_id)
    errors = [_trace_errors(t) for t in traces]
    times = [np.asarray(t.column("wall_time_s")) for t in traces]
    n = min(map(len, errors))
    if mode == AGG_BY_ITERATION:
        checkpoints = np.asarray(traces[0].column("iter")[:n])
        placed = np.stack([e[:n] for e in errors])
        mean_time = np.stack([t[:n] for t in times]).mean(axis=0)
    elif mode == AGG_BY_TIME:
        horizon = min(t[-1] for t in times) if n else 0.0
        checkpoints = np.linspace(0.0, horizon, time_buckets if n else 0)
        placed = np.stack([np.interp(checkpoints, t, e) if n else e[:0]
                           for t, e in zip(times, errors)])
        mean_time = None
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    return AggregateCurve(mode, checkpoints, *_mean_ci(placed), mean_time,
                          len(traces))


# -- step-length grid search ---------------------------------------------------


class GridSearchError(RuntimeError):
    pass


def grid_search_step(final_errors: dict) -> float:
    """The ``t_ini`` of ``{t_ini: pilot's final error}`` with the lowest error.

    A non-finite error (divergence, or a pilot with no record) is never
    selected, and ties break toward the larger step.  If no error is finite
    a :class:`GridSearchError` lists them all.
    """
    finite = [t for t, err in final_errors.items() if math.isfinite(err)]
    if not finite:
        raise GridSearchError("all step candidates diverged or recorded "
                              f"no iteration: {final_errors}")
    return min(finite, key=lambda t: (final_errors[t], -t))


def grid_pilots(spec: ExperimentSpec) -> list:
    """The ``(name, t_ini)`` pilot of each ``t_ini = grid`` solver and each
    distinct candidate, larger candidates first."""
    candidates = sorted(set(spec.get("grid.candidates")), reverse=True)
    return [(name, t_ini) for name in spec.solver_names()
            if spec.get(f"solver.{name}.t_ini") == GRID for t_ini in candidates]


def resolve_grid_searches(spec: ExperimentSpec, problem,
                          pool=None) -> ExperimentSpec:
    """Replace every ``t_ini = grid`` by its pilot-selected value (rep 0).

    The pilots of all grid-searched solvers run as one batch of jobs, in
    `pool` (see :func:`worker_pool`) when given, else here one after
    another; the selection does not depend on where they ran.  A pilot
    scores the iterate its run returns with one exact query, and returns
    just that number (see :func:`run_replication`).
    """
    pilots = grid_pilots(spec)
    jobs = [(spec.override(**{f"solver.{name}.t_ini": repr(t_ini)}), name, 0, True)
            for name, t_ini in pilots]
    final_errors = {name: {} for name, _ in pilots}
    for (name, t_ini), error in zip(pilots, _run_jobs(problem, jobs, pool)):
        final_errors[name][t_ini] = error
    return spec.override(**{f"solver.{name}.t_ini": repr(grid_search_step(by_t))
                            for name, by_t in final_errors.items()})


# -- experiment driver ----------------------------------------------------------


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    traces: dict = field(default_factory=dict)      # solver -> [RunTrace]
    aggregates: dict = field(default_factory=dict)  # (solver, mode) -> curve
    out_dir: Optional[Path] = None


_WORKER_STATE: dict = {}


def _worker_init(problem, counter):
    """Keep the parent's problem and job counter for this worker's jobs.

    Under fork the worker inherits both without a copy; under spawn or
    forkserver the problem arrives pickled, once per worker.
    """
    _WORKER_STATE.update(problem=problem, counter=counter)


def _drain(problem, jobs, counter) -> list:
    """The ``(index, result)`` pairs of the jobs this process claims off
    `counter` until none is left.  A failing job sets the counter past the
    end, so that no process claims another, and raises."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value += 1
        if i >= len(jobs):
            return done
        try:
            done.append((i, run_replication(problem, *jobs[i])))
        except BaseException:
            counter.value = len(jobs)
            raise


def _worker_drain(jobs):
    return _drain(_WORKER_STATE["problem"], jobs, _WORKER_STATE["counter"])


def _run_jobs(problem, jobs, pool=None) -> list:
    """``run_replication(problem, *job)`` for each of `jobs`, in job order.

    In a `pool` every process, this one included, takes the next job off
    one counter.  Workers run on the parent's problem (see
    :func:`_worker_init`), so a result does not depend on where its job
    ran.  A pilot sends back one float, never its trace.
    """
    if pool is None or not jobs:
        return [run_replication(problem, *job) for job in jobs]
    executor, forked, counter = pool
    counter.value = 0
    futures = [executor.submit(_worker_drain, jobs) for _ in range(forked)]
    done = dict(_drain(problem, jobs, counter))
    for future in futures:
        done.update(future.result())
    return [done[i] for i in range(len(jobs))]


@contextlib.contextmanager
def worker_pool(spec: ExperimentSpec, problem, batch: int):
    """``run.workers`` processes, this one included, that run jobs on
    `problem`, but no more than `batch`, the most jobs one batch of the
    caller's will have.  At one process it yields ``None``: jobs run here.
    Leaving shuts the workers down, whether the block raised or not.
    """
    forked = min(spec.get("run.workers"), batch) - 1
    if forked <= 0:
        yield None
        return
    import multiprocessing  # loaded only for a pool, as concurrent.futures does
    context = multiprocessing.get_context()
    counter = context.Value("q", 0)  # the next job index to claim
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=forked, mp_context=context,
            initializer=_worker_init, initargs=(problem, counter)) as executor:
        yield executor, forked, counter


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Run the full grid; write traces, aggregates and the manifest.

    One :func:`worker_pool` runs the grid pilots and then the replications,
    and is shut down before any output is written.  Writing over an earlier
    run's manifest first deletes that run's traces and aggregate curves.
    """
    problem, _ = build_problem(spec)
    reps = spec.get("run.reps")
    batch = max(len(grid_pilots(spec)), len(spec.solver_names()) * reps)
    with worker_pool(spec, problem, batch) as pool:
        spec = resolve_grid_searches(spec, problem, pool)
        names = spec.solver_names()
        jobs = [(spec, name, rep, False) for name in names for rep in range(reps)]
        traces = _run_jobs(problem, jobs, pool)
    result = ExperimentResult(spec, {name: traces[i * reps:(i + 1) * reps]
                                     for i, name in enumerate(names)})

    mode = spec.get("run.aggregate")
    modes = [AGG_BY_ITERATION, AGG_BY_TIME] if mode == "both" else [mode]
    result.aggregates = {(name, mode): aggregate(result.traces[name], mode)
                         for name in names for mode in modes}

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _remove_listed_outputs(out)  # this run rewrites what it keeps
        for name in names:
            for rep, trace in enumerate(result.traces[name]):
                with open(out / _TRACE_NAME.format(name, rep), "w") as fh:
                    write_trace_csv(trace, fh)
        _write_curves(out, result.aggregates)
        with open(out / "manifest.txt", "w") as fh:
            write_manifest(spec, problem, fh)
        result.out_dir = out
    return result


def _remove_listed_outputs(out: Path) -> None:
    """Delete the traces and curves (either mode) of the runs `out`'s
    manifest lists, and no other file."""
    try:
        old = ExperimentSpec.from_file(out / "manifest.txt")
    except (OSError, ValueError):  # no manifest, or one this version rejects
        return
    for name in old.solver_names():
        files = [_TRACE_NAME.format(name, r) for r in range(old.get("run.reps"))]
        files += [_AGG_NAME.format(name, m) for m in (AGG_BY_ITERATION, AGG_BY_TIME)]
        for file in files:
            (out / file).unlink(missing_ok=True)


def _write_curves(directory: Path, curves: dict) -> None:
    for (name, mode), curve in curves.items():
        with open(directory / _AGG_NAME.format(name, mode), "w") as fh:
            curve.write_csv(fh)


def write_manifest(spec: ExperimentSpec, problem, fh) -> None:
    """The resolved spec, which reads back as written; the CI line reads ``CI_Z``."""
    fh.write(f"# stochnewton {__version__} experiment manifest\n")
    fh.write(f"# aggregate CI: normal approximation, mean +- {CI_Z} s/sqrt(R)\n")
    meta = getattr(problem, "metadata", None)
    if meta is not None:
        fh.write(f"# problem: {meta()}\n")
    for key in sorted(spec.values):
        fh.write(f"{key} = {spec.values[key]}\n")


def aggregate_directory(directory, mode: str = AGG_BY_ITERATION) -> dict:
    """Aggregate the traces of exactly the runs `directory`'s manifest lists,
    ``<solver>_rep<r>.csv`` for ``run.solvers`` and ``r < run.reps``.  A
    missing manifest or trace raises ``FileNotFoundError``, a bad row or a
    record without a true error ``ValueError``, each naming its file.
    """
    directory = Path(directory)
    spec = ExperimentSpec.from_file(directory / "manifest.txt")
    curves = {}
    for name in spec.solver_names():
        traces = []
        for rep in range(spec.get("run.reps")):
            path = directory / _TRACE_NAME.format(name, rep)
            with open(path, "r") as fh:
                try:
                    trace = read_trace_csv(fh)
                    trace.run_id = f"{name}-rep{rep:02d}"
                    _trace_errors(trace)
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
            traces.append(trace)
        curves[name] = aggregate(traces, mode)
    _write_curves(directory, {(name, mode): c for name, c in curves.items()})
    return curves
