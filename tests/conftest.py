import numpy as np
import pytest

from stochnewton.core import EvalCounts, OracleSample, RngStream
from stochnewton.finitesum import QuadraticSumProblem
from stochnewton.linalg import SpdOperator


def random_spd(n, rng, eig_lo=1.0, eig_hi=10.0):
    """SPD matrix with eigenvalues linearly spaced in [eig_lo, eig_hi]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    return (q * np.linspace(eig_lo, eig_hi, n)) @ q.T


def fd_gradient_check(f, grad, x, h=1e-6):
    """Max scaled error between ``grad(x)`` and central differences of ``f``.

    Per-coordinate central differences ``(f(x + h e_i) - f(x - h e_i)) / 2h``
    are compared against ``grad(x)``; errors are scaled by
    ``max(1, ||grad(x)||_inf)`` so the result is meaningful both near and far
    from stationary points.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad(x), dtype=np.float64)
    fd = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (f(xp) - f(xm)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(g))))
    return float(np.max(np.abs(fd - g)) / scale)


def fd_hvp_check(grad, hvp, x, v, h=1e-6):
    """Scaled error of ``hvp(x, v)`` against central differences of ``grad`` along ``v``."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hv = np.asarray(hvp(x, v), dtype=np.float64)
    fd = (np.asarray(grad(x + h * v)) - np.asarray(grad(x - h * v))) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(hv))))
    return float(np.max(np.abs(fd - hv)) / scale)


class ExactQuadraticOracle:
    """Noise-free oracle for f(x) = x^T H x / 2 - b^T x (solver-driver tests)."""

    def __init__(self, h, b=None):
        self.h = np.asarray(h, dtype=np.float64)
        self.n = self.h.shape[0]
        self.b = np.zeros(self.n) if b is None else np.asarray(b, np.float64)
        self.x_star = np.linalg.solve(self.h, self.b)
        self.f_star = self._value(self.x_star)
        self.problem = self  # divergence marking looks for .problem.f_star

    def _value(self, x):
        return float(0.5 * x @ self.h @ x - self.b @ x)

    def sample(self, x, *, want_value=False, want_gradient=False,
               want_hessian=False):
        return OracleSample(
            value=self._value(x) if want_value else None,
            gradient=self.h @ x - self.b if want_gradient else None,
            hessian=SpdOperator.from_dense(self.h) if want_hessian else None,
        )

    def counts(self):
        return EvalCounts()

    def true_error(self, x):
        return self._value(x) - self.f_star


def quadratic_sum_problem(N, n, seed=0):
    rng = RngStream(seed, 0)
    hessians, rhs = [], []
    for _ in range(N):
        hessians.append(random_spd(n, rng))
        rhs.append(rng.standard_normal(n))
    return QuadraticSumProblem(hessians, rhs)


@pytest.fixture
def rng():
    return RngStream(1234, 0)
