"""Step-length policies: gain sequences and the nonmonotone backtracking search.

Two regimes coexist in the solvers.  While the line search is active, steps
come from :func:`backtrack`, an Armijo test relaxed by an additive summable
slack ``zeta_k`` (so occasional increases of the *sampled* objective are
tolerated).  Once steps become too small -- see :func:`switch_check` -- the
driver switches, once and for all, to a pre-defined decaying gain sequence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

SWITCH_STEP_NORM = "step_norm"   # deactivate when t * ||d|| < t_min
SWITCH_STEP_ONLY = "step_only"   # deactivate when t < t_min


@dataclass
class GainSchedule:
    """The gain sequence ``alpha_k = alpha0 * T / (T + k)`` with a counter.

    It decays like ``1/k`` only for ``k >> T``, which keeps early steps
    close to ``alpha0``.  When the line search deactivates at iteration
    ``k_tau`` the solvers start a fresh schedule with
    ``alpha0 = t_min / ||d_ktau||``, so its ``k``-th gain is the anchored
    ``alpha_ktau * T / (T + k - k_tau)`` of the outer iteration ``k_tau + k``.
    """

    alpha0: float = 1.0
    T: float = 1e6
    current_k: int = 0

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.T <= 0:
            raise ValueError("T must be positive")

    def peek(self, k: int) -> float:
        return self.alpha0 * self.T / (self.T + k)

    def next_gain(self) -> float:
        """Return ``alpha_k`` for the current ``k`` and advance the counter."""
        value = self.peek(self.current_k)
        self.current_k += 1
        return value


ZETA_GEOMETRIC = "geometric"
ZETA_ZERO = "zero"


@dataclass
class LineSearchConfig:
    """Backtracking parameters; defaults follow the benchmark settings.

    ``eta`` is the Armijo parameter, ``beta`` the backtracking factor,
    ``theta`` the geometric decay of the nonmonotone slack
    ``zeta_k = theta**k`` (``zeta_kind == "zero"`` gives the classical
    monotone Armijo test).  ``t_start`` is the first trial step of every
    search.  ``switch_rule`` selects the deactivation test; ``step_norm``
    looks at the actual displacement ``t * ||d||``.
    """

    eta: float = 1e-4
    beta: float = 0.5
    zeta_kind: str = ZETA_GEOMETRIC
    theta: float = 0.9
    t_start: float = 1.0
    max_backtracks: int = 60
    t_min: float = 1e-3
    switch_rule: str = SWITCH_STEP_NORM

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must lie in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if self.zeta_kind not in (ZETA_GEOMETRIC, ZETA_ZERO):
            raise ValueError(f"unknown zeta kind {self.zeta_kind!r}")
        if self.zeta_kind == ZETA_GEOMETRIC and not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        if not (0.0 < self.t_start < math.inf and 0.0 < self.t_min < math.inf):
            raise ValueError("t_start and t_min must be positive and finite")
        if not (isinstance(self.max_backtracks, numbers.Integral)
                and self.max_backtracks >= 1):
            raise ValueError("max_backtracks must be an integer >= 1")
        if self.switch_rule not in (SWITCH_STEP_NORM, SWITCH_STEP_ONLY):
            raise ValueError(f"unknown switch rule {self.switch_rule!r}")

    def zeta(self, k: int) -> float:
        if self.zeta_kind == ZETA_ZERO:
            return 0.0
        return self.theta ** k


@dataclass(frozen=True)
class BacktrackResult:
    t: float
    accepted: bool
    n_trials: int


def backtrack(f_hat: Callable[[float], float], f0: float, slope_hat: float,
              cfg: LineSearchConfig, zeta_k: float = 0.0) -> BacktrackResult:
    """Find the smallest ``j >= 0`` with ``t = t_start * beta**j`` accepted.

    Acceptance means ``f_hat(t) <= f0 + eta * t * slope_hat + zeta_k``.
    The finite-sum methods fix the iteration's mini-batch, so ``f0`` and
    every trial evaluate one sampled objective.  The noisy-oracle methods
    call the oracle once for ``f0`` and once per trial, each call with
    fresh value noise; the slack ``zeta_k`` absorbs that noise.  Non-finite
    trial values count as rejections.  If no trial up to ``j = max_backtracks``
    is accepted, the last (smallest) ``t`` is returned with
    ``accepted=False`` and the caller applies its exhaustion policy.
    """
    if zeta_k < 0:
        raise ValueError("zeta_k must be >= 0")
    t = cfg.t_start
    trials = 0
    for _ in range(cfg.max_backtracks + 1):
        trials += 1
        ft = f_hat(t)
        if math.isfinite(ft) and ft <= f0 + cfg.eta * t * slope_hat + zeta_k:
            return BacktrackResult(t, True, trials)
        t *= cfg.beta
    # undo the final multiplication: last trial used t / beta
    return BacktrackResult(t / cfg.beta, False, trials)


def switch_check(t: float, d_norm: float, cfg: LineSearchConfig) -> bool:
    """True when the line search must deactivate (strict inequalities)."""
    if t < 0 or d_norm < 0:
        raise ValueError("t and d_norm must be non-negative")
    if cfg.switch_rule == SWITCH_STEP_ONLY:
        return t < cfg.t_min
    return t * d_norm < cfg.t_min
