"""The LSOS loop, the config of every method, and the noisy-oracle methods.

Every method, noisy-oracle or finite-sum (:mod:`stochnewton.fs_solvers`),
runs the one loop ``x_{k+1} = x_k + t_k d_k`` of :func:`_lsos_loop`.  A
method family supplies a gradient estimate, a direction, the sampled
objective its line search evaluates and a post-step update, plus the source
of its iterations.  The noisy-oracle methods differ in how ``d_k`` and
``t_k`` are produced:

====================  =========================  ==============================
method                direction                  step length
====================  =========================  ==============================
``sos``               ``-B(x_k)^{-1} g(x_k)``    pre-defined gain sequence
``lsos``              same, residual ``<= delta_k ||g||``
                                                 line search, then gain sequence
``lsos_inexact``      ``lsos`` with geometric ``delta_k`` (CG-solved systems)
``sgd``               ``-g(x_k)``                pre-defined gain sequence
``sgd_ls``            ``-g(x_k)``                line search, then gain sequence
====================  =========================  ==============================

A dense sampled Hessian is factorized when ``delta_k = 0``; every other
Newton system runs the one CG loop of :func:`~stochnewton.linalg.solve_cg`.
A dense one has no diagonal part, so its CG is preconditioned by the
identity; a Householder one is preconditioned by its diagonal part and
takes at most 7 iterations in exact arithmetic.

The two families differ in one policy, what an exhausted search does.  The
noisy line-search methods start in an active phase and deactivate it --
once, irreversibly -- when the search is exhausted or the accepted
displacement drops below ``t_min``; from then on steps come from a gain
sequence anchored at the switch iteration.  The finite-sum methods keep
searching and take the smallest trial step of an exhausted search.
If a sampled Hessian turns out not to be positive definite, that iteration
falls back to the steepest-descent direction and the trace records it.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import (PHASE_GAIN, PHASE_LINE_SEARCH, EvalCounts, RunTrace,
                   TraceRecord, Vector, as_vector)
from .linalg import (NotPositiveDefiniteError, SpdOperator, solve_cg,
                     solve_direct)
from .steplen import GainSchedule, LineSearchConfig, backtrack, switch_check

_logger = logging.getLogger(__name__)

METHOD_SOS = "sos"
METHOD_LSOS = "lsos"
METHOD_LSOS_INEXACT = "lsos_inexact"
METHOD_SGD = "sgd"
METHOD_SGD_LS = "sgd_ls"
METHOD_LSOS_FS = "lsos_fs"
METHOD_LSOS_BFGS = "lsos_bfgs"
METHOD_SAGA_LS = "saga_ls"

_NEWTON_METHODS = (METHOD_SOS, METHOD_LSOS, METHOD_LSOS_INEXACT)
_GAIN_METHODS = (METHOD_SOS, METHOD_SGD)  # gains from the first iteration
NOISY_METHODS = (METHOD_SOS, METHOD_LSOS, METHOD_LSOS_INEXACT, METHOD_SGD,
                 METHOD_SGD_LS)
FS_METHODS = (METHOD_LSOS_FS, METHOD_LSOS_BFGS, METHOD_SAGA_LS)

DELTA_ZERO = "zero"
DELTA_GEOMETRIC = "geometric"
DELTA_CONSTANT = "constant"


@dataclass(frozen=True)
class DeltaSchedule:
    """Forcing-term sequence for the Newton-system residual, ``delta_k``."""

    kind: str = DELTA_ZERO
    rho: float = 0.95
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (DELTA_ZERO, DELTA_GEOMETRIC, DELTA_CONSTANT):
            raise ValueError(f"unknown delta kind {self.kind!r}")
        if self.kind == DELTA_GEOMETRIC and not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if self.kind == DELTA_CONSTANT and not 0.0 <= self.value < math.inf:
            raise ValueError("constant delta must be finite and >= 0")

    def at(self, k: int) -> float:
        if self.kind == DELTA_ZERO:
            return 0.0
        if self.kind == DELTA_GEOMETRIC:
            return self.rho ** k
        return self.value


AUTO_ALPHA0 = "auto"  # alpha0 = 1 / ||d_0||
_CG_REL_FLOOR = 1e-6  # CG's tolerance at smaller delta_k: it cannot reach 0


@dataclass
class SolverConfig:
    """The configuration of every method; ``method`` picks the family.

    ``sos`` and ``sgd`` step by the gains ``alpha_k = alpha0 T/(T+k)``;
    ``alpha0 = "auto"`` is ``1 / ||d_0||``, a first step of unit length.  A
    line search's switch anchors the gains at ``t_min`` and reads only ``T``.
    A field left ``None`` takes the method's default: ``delta`` geometric
    for ``lsos_inexact``, else zero; ``ls`` with ``theta = 0.999`` for
    finite sums (the nonmonotone slack lives over whole epochs);
    ``max_iters`` 100 for noisy oracles, none for finite sums, which then
    need another budget.  The method alone fixes how it draws its batches.
    """

    method: str = METHOD_LSOS
    alpha0: object = AUTO_ALPHA0
    T: float = 1e6
    ls: Optional[LineSearchConfig] = None
    delta: Optional[DeltaSchedule] = None
    batch_size: Optional[int] = None        # default ceil(sqrt(N))
    hess_batch_size: Optional[int] = None   # default ceil(sqrt(N))
    m: int = 10
    l: int = 5
    max_epochs: Optional[int] = None
    max_iters: Optional[int] = None
    time_budget_s: float = math.inf
    grad_tol: Optional[float] = None

    def __post_init__(self):
        if self.method not in NOISY_METHODS + FS_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        finite_sum = self.method in FS_METHODS
        if self.delta is None:
            # lsos_inexact is lsos with a geometric forcing term
            self.delta = DeltaSchedule(DELTA_GEOMETRIC
                                       if self.method == METHOD_LSOS_INEXACT
                                       else DELTA_ZERO)
        if self.ls is None:  # a fresh one each: LineSearchConfig is mutable
            self.ls = (LineSearchConfig(theta=0.999) if finite_sum
                       else LineSearchConfig())
        if self.max_iters is None and not finite_sum:
            self.max_iters = 100
        if self.alpha0 != AUTO_ALPHA0 and not 0 < float(self.alpha0) < math.inf:
            raise ValueError(f"alpha0 must be finite and > 0 or {AUTO_ALPHA0!r}")
        if not 0 < self.T < math.inf:
            raise ValueError("T must be finite and > 0")
        for name in ("max_iters", "max_epochs", "batch_size", "hess_batch_size",
                     "m", "l"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.time_budget_s > 0:  # NaN fails too
            raise ValueError("time_budget_s must be > 0")
        if self.grad_tol is not None and not 0 <= self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and >= 0")
        if finite_sum and self.max_epochs is None and self.max_iters is None \
                and not math.isfinite(self.time_budget_s):
            raise ValueError("need at least one of max_epochs/max_iters/time budget")


@dataclass
class SolverResult:
    x: Vector
    trace: RunTrace
    stop_reason: str
    iterations: int
    final_grad_norm: Optional[float]
    k_tau: Optional[int] = None
    eval_counts: Optional[EvalCounts] = None


def run_solver(oracle, cfg: SolverConfig, x0: Vector,
               f_star: Optional[float] = None) -> SolverResult:
    """Run one noisy-oracle method of :data:`NOISY_METHODS` from ``x0``; only
    given ``f_star`` does it record true errors, ``oracle.true_error(x,
    f_star)``."""
    if cfg.method not in NOISY_METHODS:
        raise ValueError(f"{cfg.method!r} is not a noisy-oracle method")
    newton = cfg.method in _NEWTON_METHODS
    sample = None

    def estimate(x, _batch):
        nonlocal sample
        sample = oracle.sample(x, want_gradient=True, want_hessian=newton)
        return sample.gradient

    def newton_step(x, _batch, g, k):
        # the Hessian of the same oracle sample as g
        return _newton_direction(sample.hessian, g, cfg, k)

    def objective(x, _batch):
        return oracle.sample(x, want_value=True).value

    def true_errors(xs):
        return [oracle.true_error(x, f_star) for x in xs]

    return _lsos_loop(
        cfg, as_vector(x0, oracle.n).copy(), itertools.repeat(None),
        estimate=estimate, direction=newton_step if newton else None,
        objective=objective, after_step=None,
        true_errors=None if f_star is None else true_errors,
        counts=oracle.counts, since=oracle.counts())


def _newton_direction(b: SpdOperator, g: Vector, cfg, k: int):
    """Return (d, cg_iters, cg_relres, fallback) honoring the residual rule."""
    delta_k = cfg.delta.at(k)
    try:
        if delta_k == 0.0 and b.dense is not None:
            return solve_direct(b.dense, -g), None, None, False
        # the residual rule caps at 1: an unclamped tolerance >= 1 would
        # accept d = 0, so force at least one CG step
        rel = min(max(delta_k, _CG_REL_FLOOR), 1.0 - 1e-12)
        res = solve_cg(b, -g, rel_tol=rel)
        return res.d, res.iters, res.rel_res, False
    except NotPositiveDefiniteError:
        return -g, None, None, True


def _norm(v: Vector) -> float:
    """``np.linalg.norm(v)`` to the last bit, but silent when it overflows.

    An infinite norm is the loop's divergence signal, not a fault.  ``vdot``
    runs the same dot product without numpy's floating-point error check,
    so unlike ``np.errstate`` the silence costs nothing per iteration.
    """
    return math.sqrt(np.vdot(v, v))


def _lsos_loop(cfg, x: Vector, batches: Iterable, *, estimate, direction,
               objective, after_step, true_errors, counts, since: EvalCounts,
               elapsed: float = 0.0, error_block: int = 1) -> SolverResult:
    """The LSOS iteration ``x_{k+1} = x_k + t_k d_k`` shared by every method.

    ``batches`` yields one item per iteration (``None`` forever for noisy
    oracles, mini-batches until the epoch budget for finite sums); the
    family callables receive it:

    * ``estimate(x, batch) -> g``;
    * ``direction(x, batch, g, k) -> (d, cg_iters, cg_relres, fallback)``,
      or ``None`` for ``d = -g``;
    * ``objective(x, batch)``, the sampled objective of the search;
    * ``after_step(x_next, batch)`` or ``None``.

    ``cfg.method`` sets the step policy: ``sos`` and ``sgd`` run the gain
    sequence throughout; the other noisy-oracle methods switch once to the
    anchored gain sequence after an exhausted or too-short search; the
    finite-sum methods keep searching, and an exhausted search takes its
    smallest trial step with one warning per run.  ``counts`` returns the
    cumulative evaluation counters; ``since`` is their value at the start of
    the run and ``elapsed`` the solver time already spent on it.

    A record's ``wall_time_s`` is the solver time up to its iteration: the
    draw of each iteration's item from ``batches`` (for finite sums the
    index draw and the slicing of the batch view), the estimate, direction,
    search and post-step update, not the true error.  ``f_hat`` is the
    search's start value, ``None`` on a ``GAIN`` record (a gain step).

    A run diverges at a non-finite gradient or direction norm, or at a step
    ``t d`` that would overflow or leaves a non-finite iterate (a search
    trial that would overflow is rejected uncalled).  Its last row, timed
    like any other, has ``f_hat = inf``, an infinite true error given
    ``true_errors``, and ``step_len`` 0 unless its step length was chosen.

    True errors are evaluated in blocks, while the clock is stopped:
    ``true_errors(xs)`` returns the error at each of the iterates ``xs``, a
    list of ``error_block`` or fewer vectors.  Each record's iterate waits
    in a queue, uncopied (the loop never writes into an iterate), until
    ``error_block`` are pending or the loop ends.  With ``true_errors``
    ``None`` (no reference optimum, or a grid pilot, which scores only the
    iterate the run returns) every record's true error stays empty.
    """
    trace = RunTrace()
    has_ref = true_errors is not None
    pending: list = []  # (k, x_k) of the records awaiting their true error

    def fill_true_errors():
        errors = true_errors([x_k for _, x_k in pending])
        for (i, _), error in zip(pending, errors):
            trace.records[i].true_error = float(error)
        pending.clear()

    finite_sum = cfg.method in FS_METHODS
    phase = PHASE_GAIN if cfg.method in _GAIN_METHODS else PHASE_LINE_SEARCH
    schedule: Optional[GainSchedule] = None
    k_tau: Optional[int] = None
    gnorm: Optional[float] = None
    exhausted_warned = False
    k = 0
    tic = time.perf_counter()  # drawing the next item is solver time
    for batch in itertools.islice(batches, cfg.max_iters):
        if elapsed >= cfg.time_budget_s:
            stop_reason = "time_budget"
            break

        t = 0.0  # the step of a divergence row, until one is chosen
        g = estimate(x, batch)
        gnorm = _norm(g)
        if not math.isfinite(gnorm):
            stop_reason = "diverged"
            break
        if cfg.grad_tol is not None and gnorm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break

        if direction is None:
            d, cg_iters, cg_relres, fallback = -g, None, None, False
        else:
            d, cg_iters, cg_relres, fallback = direction(x, batch, g, k)
        dnorm = _norm(d)
        if dnorm == 0.0:
            stop_reason = "zero_direction"
            break
        if not math.isfinite(dnorm):
            stop_reason = "diverged"
            break

        if phase == PHASE_LINE_SEARCH:
            f_hat = objective(x, batch)
            res = backtrack(lambda t: objective(x + t * d, batch)
                            if math.isfinite(t * dnorm) else math.inf,
                            f_hat, float(g @ d), cfg.ls, cfg.ls.zeta(k))
            t = res.t
            if finite_sum:
                if not res.accepted and not exhausted_warned:
                    _logger.warning("line search exhausted %d backtracks at "
                                    "k=%d; taking the smallest trial step",
                                    cfg.ls.max_backtracks, k)
                    exhausted_warned = True
            elif not res.accepted or switch_check(t, dnorm, cfg.ls):
                # one-way switch: the gain sequence starts at this iteration
                phase = PHASE_GAIN
                k_tau = k
        if phase == PHASE_GAIN:
            if schedule is None:  # anchored at a switch, else alpha0 or "auto"
                alpha0 = (cfg.ls.t_min / dnorm if k_tau is not None
                          else 1.0 / dnorm if cfg.alpha0 == AUTO_ALPHA0
                          else cfg.alpha0)
                schedule = GainSchedule(alpha0=alpha0, T=cfg.T)
            t = schedule.next_gain()

        # t * d is formed only where it cannot overflow
        x_next = x + t * d if math.isfinite(t * dnorm) else None
        if x_next is None or not np.all(np.isfinite(x_next)):
            stop_reason = "diverged"
            break
        if after_step is not None:
            after_step(x_next, batch)
        elapsed += time.perf_counter() - tic

        trace.append(TraceRecord(
            iter=k, wall_time_s=elapsed, true_error=None,
            f_hat=f_hat if phase == PHASE_LINE_SEARCH else None,
            grad_norm_hat=gnorm, step_len=t, phase=phase, cg_iters=cg_iters,
            cg_relres=cg_relres, fallback=fallback,
        ))
        if has_ref:
            pending.append((k, x))
            if len(pending) == error_block:
                fill_true_errors()
        x = x_next
        k += 1
        tic = time.perf_counter()
    else:
        stop_reason = "max_iters" if k == cfg.max_iters else "max_epochs"
    if stop_reason == "diverged":  # one row, timed with its iteration
        elapsed += time.perf_counter() - tic
        trace.append(TraceRecord(
            iter=k, wall_time_s=elapsed, f_hat=math.inf,
            true_error=math.inf if has_ref else None, grad_norm_hat=gnorm,
            step_len=t, phase=phase))
    if pending:
        fill_true_errors()

    now = counts()
    evals = EvalCounts(now.f_evals - since.f_evals, now.g_evals - since.g_evals,
                       now.hvp_evals - since.hvp_evals)
    return SolverResult(x=x, trace=trace, stop_reason=stop_reason,
                        iterations=k, final_grad_norm=gnorm, k_tau=k_tau,
                        eval_counts=evals)
