"""Line-search solvers for finite-sum objectives.

Three methods share one loop; all of them line-search the *sampled*
objective ``f_K`` over the same mini-batch that produced the gradient
estimate (the Armijo test needs a fixed function within an iteration):

``lsos_fs``
    Subsampled gradient and subsampled-Hessian Newton direction with the
    relative residual rule ``||B d + g|| <= delta_k ||g||`` (``delta_k = 0``
    solves directly).
``lsos_bfgs``
    Mini-batch SAGA gradient estimate, direction ``-H_k g`` from the
    averaged-iterate L-BFGS memory; gradient direction during warmup while
    the memory is empty.  Batches come from a fresh random partition each
    epoch and are used in order.
``saga_ls``
    The first-order baseline: SAGA estimate, direction ``-g``, same search.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (PHASE_LINE_SEARCH, EvalCounts, RunTrace, TraceRecord, Vector,
                   as_vector)
from .finitesum import (FiniteSumProblem, SagaTable, default_batch_size,
                        make_partition)
from .linalg import NotPositiveDefiniteError, SpdOperator, solve_cg, solve_direct
from .logreg import LogRegModel, LogRegSagaTable
from .slbfgs import LbfgsMemory
from .solvers import DeltaSchedule, SolverResult
from .steplen import LineSearchConfig, backtrack

logger = logging.getLogger(__name__)

METHOD_LSOS_FS = "lsos_fs"
METHOD_LSOS_BFGS = "lsos_bfgs"
METHOD_SAGA_LS = "saga_ls"
FS_METHODS = (METHOD_LSOS_FS, METHOD_LSOS_BFGS, METHOD_SAGA_LS)

SCHEME_PARTITION = "partition"
SCHEME_UNIFORM = "uniform"

STORAGE_DENSE = "dense"
STORAGE_LOSS_SPLIT = "loss_split"


def default_fs_line_search() -> LineSearchConfig:
    # theta = 0.999 keeps the nonmonotone slack alive over whole epochs
    return LineSearchConfig(theta=0.999)


@dataclass
class FsSolverConfig:
    method: str = METHOD_LSOS_BFGS
    ls: LineSearchConfig = field(default_factory=default_fs_line_search)
    delta: DeltaSchedule = field(default_factory=DeltaSchedule)
    batch_size: Optional[int] = None        # default ceil(sqrt(N))
    hess_batch_size: Optional[int] = None   # default ceil(sqrt(N))
    batch_scheme: Optional[str] = None      # partition for SAGA methods, else uniform
    m: int = 10
    l: int = 5
    saga_storage: str = STORAGE_DENSE
    cg_rel_floor: float = 1e-6
    cg_max_iters: Optional[int] = None
    max_epochs: Optional[int] = None
    max_iters: Optional[int] = None
    time_budget_s: float = math.inf
    grad_tol: Optional[float] = None

    def __post_init__(self):
        if self.method not in FS_METHODS:
            raise ValueError(f"unknown finite-sum method {self.method!r}")
        if self.batch_scheme is None:
            self.batch_scheme = (SCHEME_UNIFORM if self.method == METHOD_LSOS_FS
                                 else SCHEME_PARTITION)
        if self.batch_scheme not in (SCHEME_PARTITION, SCHEME_UNIFORM):
            raise ValueError(f"unknown batch scheme {self.batch_scheme!r}")
        if self.saga_storage not in (STORAGE_DENSE, STORAGE_LOSS_SPLIT):
            raise ValueError(f"unknown saga storage {self.saga_storage!r}")
        if self.max_epochs is None and self.max_iters is None \
                and not math.isfinite(self.time_budget_s):
            raise ValueError("need at least one of max_epochs/max_iters/time budget")


def run_lsos_fs(problem: FiniteSumProblem, cfg: FsSolverConfig, x0: Vector,
                rng, f_star: Optional[float] = None) -> SolverResult:
    if cfg.method != METHOD_LSOS_FS:
        raise ValueError(f"run_lsos_fs got method {cfg.method!r}")
    return _drive_fs(problem, cfg, x0, rng, f_star)


def run_lsos_bfgs(problem: FiniteSumProblem, cfg: FsSolverConfig, x0: Vector,
                  rng, f_star: Optional[float] = None) -> SolverResult:
    if cfg.method != METHOD_LSOS_BFGS:
        raise ValueError(f"run_lsos_bfgs got method {cfg.method!r}")
    return _drive_fs(problem, cfg, x0, rng, f_star)


def run_saga_ls(problem: FiniteSumProblem, cfg: FsSolverConfig, x0: Vector,
                rng, f_star: Optional[float] = None) -> SolverResult:
    if cfg.method != METHOD_SAGA_LS:
        raise ValueError(f"run_saga_ls got method {cfg.method!r}")
    return _drive_fs(problem, cfg, x0, rng, f_star)


def run_fs_solver(problem, cfg: FsSolverConfig, x0, rng,
                  f_star: Optional[float] = None) -> SolverResult:
    return _drive_fs(problem, cfg, x0, rng, f_star)


def _make_saga_table(problem, cfg, x0):
    if cfg.saga_storage == STORAGE_LOSS_SPLIT:
        if not isinstance(problem, LogRegModel):
            raise ValueError("loss_split storage requires a logistic model")
        return LogRegSagaTable(problem, x0)
    return SagaTable(problem, x0)


def _newton_direction(problem, batch, x, g, cfg, k):
    delta_k = cfg.delta.at(k)
    b = SpdOperator.from_dense(problem.batch_hessian(batch, x))
    try:
        if delta_k == 0.0:
            return solve_direct(b, -g), None, None, False
        rel = min(max(delta_k, cfg.cg_rel_floor), 1.0 - 1e-12)
        res = solve_cg(b, -g, rel_tol=rel, max_iters=cfg.cg_max_iters)
        return res.d, res.iters, res.rel_res, False
    except NotPositiveDefiniteError:
        return -g, None, None, True


def _eval_totals(problem):
    """The problem's cumulative (value, gradient, HVP) component counters."""
    return problem.value_evals, problem.grad_evals, problem.hvp_evals


def _append_fs_divergence(trace, k, elapsed, gnorm, f_star, t=0.0):
    trace.append(TraceRecord(iter=k, wall_time_s=elapsed, f_hat=math.inf,
                             true_error=math.inf if f_star is not None else None,
                             grad_norm_hat=gnorm, step_len=t,
                             phase=PHASE_LINE_SEARCH))


def _drive_fs(problem: FiniteSumProblem, cfg: FsSolverConfig, x0: Vector,
              rng, f_star: Optional[float]) -> SolverResult:
    x = as_vector(x0, problem.n).copy()
    batch_size = cfg.batch_size or default_batch_size(problem.N)
    hess_batch_size = cfg.hess_batch_size or default_batch_size(problem.N)
    batch_size = min(batch_size, problem.N)
    n_b = int(np.ceil(problem.N / batch_size))

    batch_rng = rng.child(0)
    hess_rng = rng.child(1)

    use_saga = cfg.method in (METHOD_LSOS_BFGS, METHOD_SAGA_LS)
    use_lbfgs = cfg.method == METHOD_LSOS_BFGS

    evals_at_entry = _eval_totals(problem)  # the SAGA table's pass counts too
    elapsed = 0.0
    tic = time.perf_counter()
    table = _make_saga_table(problem, cfg, x) if use_saga else None
    memory = LbfgsMemory(cfg.m, cfg.l) if use_lbfgs else None
    elapsed += time.perf_counter() - tic

    def hvp_fresh_batch(w, s):
        t_j = np.sort(hess_rng.choice(problem.N, size=min(hess_batch_size, problem.N)))
        return problem.batch_hvp(t_j, w, s)

    trace = RunTrace()
    stop_reason = "max_epochs"
    gnorm: Optional[float] = None
    k = 0
    epoch = 0
    done = False
    exhausted_warned = False

    while not done:
        if cfg.max_epochs is not None and epoch >= cfg.max_epochs:
            stop_reason = "max_epochs"
            break
        if cfg.batch_scheme == SCHEME_PARTITION:
            batches = list(make_partition(problem.N, n_b, batch_rng))
        else:
            batches = [np.sort(batch_rng.choice(problem.N, size=batch_size))
                       for _ in range(n_b)]
        for batch in batches:
            if cfg.max_iters is not None and k >= cfg.max_iters:
                stop_reason, done = "max_iters", True
                break
            if elapsed >= cfg.time_budget_s:
                stop_reason, done = "time_budget", True
                break
            tic = time.perf_counter()

            if use_saga:
                g = table.estimate(x, batch)
            else:
                g = problem.batch_gradient(batch, x)
            gnorm = float(np.linalg.norm(g))
            if not math.isfinite(gnorm):
                _append_fs_divergence(trace, k, elapsed, gnorm, f_star)
                stop_reason, done = "diverged", True
                break
            if cfg.grad_tol is not None and gnorm <= cfg.grad_tol:
                stop_reason, done = "grad_tol", True
                break

            cg_iters = cg_relres = None
            fallback = False
            if cfg.method == METHOD_LSOS_FS:
                d, cg_iters, cg_relres, fallback = _newton_direction(
                    problem, batch, x, g, cfg, k)
            elif use_lbfgs:
                d = -memory.apply_inverse_hessian(g)
            else:
                d = -g
            if not np.any(d):
                stop_reason, done = "zero_direction", True
                break

            f0 = problem.batch_value(batch, x)

            def f_trial(t, batch=batch, x=x, d=d):
                return problem.batch_value(batch, x + t * d)

            res = backtrack(f_trial, f0, float(g @ d), cfg.ls, cfg.ls.zeta(k))
            if not res.accepted and not exhausted_warned:
                logger.warning("line search exhausted %d backtracks at k=%d; "
                               "taking the smallest trial step", cfg.ls.max_backtracks, k)
                exhausted_warned = True
            t = res.t

            x_next = x + t * d
            if not np.all(np.isfinite(x_next)):
                elapsed += time.perf_counter() - tic
                _append_fs_divergence(trace, k, elapsed, gnorm, f_star, t)
                stop_reason, done = "diverged", True
                break
            if use_saga:
                table.update(batch, x_next)
            if use_lbfgs:
                memory.record_iterate(x_next, hvp_fresh_batch)
            elapsed += time.perf_counter() - tic

            true_error = None if f_star is None else problem.objective(x) - f_star
            trace.append(TraceRecord(
                iter=k, wall_time_s=elapsed, f_hat=f0, true_error=true_error,
                grad_norm_hat=gnorm, step_len=t, phase=PHASE_LINE_SEARCH,
                cg_iters=cg_iters, cg_relres=cg_relres, fallback=fallback,
            ))
            x = x_next
            k += 1
        epoch += 1
        if cfg.max_epochs is None and cfg.max_iters is not None and k >= cfg.max_iters:
            done = True

    evals = EvalCounts(*(now - then for now, then
                         in zip(_eval_totals(problem), evals_at_entry)))
    return SolverResult(x=x, trace=trace, stop_reason=stop_reason, iterations=k,
                        final_grad_norm=gnorm, k_tau=None, eval_counts=evals)
