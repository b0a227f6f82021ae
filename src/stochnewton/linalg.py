"""SPD linear algebra kernels for the Newton systems.

Direct solves go through a Cholesky factorization; the iterative path is a
conjugate-gradient loop with a *relative* residual stopping rule (the
achieved residual is always recomputed from scratch before being reported, so
the returned certificate can be trusted), preconditioned by the operator's
positive diagonal part when it has one.  Indefiniteness surfaces as
:class:`NotPositiveDefiniteError`; the solver drivers decide the fallback.
:func:`damped_newton` is the exact Newton loop behind every reference
optimum; each problem family passes its own Newton solve, and its steps
come from the solvers' Armijo search, :func:`~stochnewton.steplen.backtrack`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Vector
from .steplen import LineSearchConfig, backtrack


class NotPositiveDefiniteError(Exception):
    """The (sampled) Hessian failed an SPD check during a solve."""


class SpdOperator:
    """A symmetric positive definite linear map ``v -> B v``.

    Backed by an explicit dense matrix (``dense is not None``), a matvec
    closure, or both; :meth:`apply` prefers the closure.  ``n`` is the
    dimension.  ``diag``, if given, is a diagonal part ``Delta`` of ``B``
    with ``B - Delta`` of low rank k; :func:`solve_cg` preconditions by it,
    which takes at most k + 1 iterations in exact arithmetic.
    """

    __slots__ = ("n", "dense", "diag", "_matvec")

    def __init__(self, n: int, matvec: Optional[Callable[[Vector], Vector]] = None,
                 dense: Optional[np.ndarray] = None,
                 diag: Optional[Vector] = None):
        if dense is None and matvec is None:
            raise ValueError("need a dense matrix or a matvec")
        self.n = int(n)
        self.dense = dense
        self.diag = diag
        self._matvec = matvec

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SpdOperator":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        return cls(a.shape[0], dense=a)

    @property
    def is_explicit(self) -> bool:
        return self.dense is not None

    def apply(self, v: Vector) -> Vector:
        if self._matvec is not None:
            return self._matvec(v)
        return self.dense @ v


def solve_direct(op: SpdOperator, rhs: Vector) -> Vector:
    """Solve ``B d = rhs`` by Cholesky factorization of the explicit matrix.

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization meets a non-positive pivot.  Callers treat this
        as "the sampled Hessian is not SPD" and fall back to steepest descent.
    """
    if not op.is_explicit:
        raise ValueError("solve_direct needs an explicit matrix")
    # LAPACK loads at the first dense factorization, so processes that only
    # solve matrix-free (Householder noisy runs and their workers) never map it
    import scipy.linalg
    try:
        cho = scipy.linalg.cho_factor(op.dense, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return scipy.linalg.cho_solve(cho, rhs, check_finite=False)


@dataclass(frozen=True)
class CgResult:
    d: Vector
    rel_res: float
    iters: int


def solve_cg(op: SpdOperator, rhs: Vector, rel_tol: float,
             max_iters: Optional[int] = None) -> CgResult:
    """Conjugate gradients for ``B d = rhs`` from ``d0 = 0``.

    Stops once ``||B d - rhs|| <= rel_tol * ||rhs||`` or after ``max_iters``
    iterations (default ``2 n``).  The residual used in the loop is refreshed
    from a true matvec every 50 iterations to limit recurrence drift, and the
    reported ``rel_res`` is always recomputed from the returned ``d``.

    An operator with a ``diag`` whose entries are all positive and finite
    runs CG preconditioned by it, one elementwise product and one dot
    product more per iteration; the stop test still reads the residual of
    ``B d = rhs`` itself.  Every other operator runs plain CG.

    Raises
    ------
    NotPositiveDefiniteError
        On detected negative curvature ``p^T B p <= 0``.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if max_iters is None:
        max_iters = 2 * op.n
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CgResult(np.zeros(op.n), 0.0, 0)

    inv = None  # the preconditioner Delta^-1
    if op.diag is not None:
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / op.diag
        if not np.all((inv > 0.0) & (inv < math.inf)):  # NaN fails too
            inv = None

    apply = op.apply
    d = np.zeros(op.n)
    r = rhs.copy()
    rs = float(r @ r)
    # z = Delta^-1 r; plain CG takes z = r, so r^T z is r^T r
    z = r if inv is None else r * inv
    rz = rs if inv is None else float(r @ z)
    p = z.copy()
    step = np.empty(op.n)  # alpha * p, then alpha * B p
    iters = 0
    threshold = rel_tol * rhs_norm
    while iters < max_iters and math.sqrt(rs) > threshold:
        bp = apply(p)
        curv = float(p @ bp)
        if curv <= 0.0:
            raise NotPositiveDefiniteError(
                f"negative curvature in CG at iteration {iters}: p^T B p = {curv}"
            )
        alpha = rz / curv
        d += np.multiply(p, alpha, out=step)
        iters += 1
        if iters % 50 == 0:
            r = rhs - apply(d)
        else:
            r -= np.multiply(bp, alpha, out=step)
        rs = float(r @ r)
        if inv is None:
            z, rz_new = r, rs
        else:
            rz_new = float(r @ np.multiply(r, inv, out=z))
        p *= rz_new / rz
        p += z
        rz = rz_new

    final = float(np.linalg.norm(rhs - apply(d))) / rhs_norm
    return CgResult(d, final, iters)


# halving from t = 1 down to 2**-59; an exhausted search takes the last trial
_NEWTON_SEARCH = LineSearchConfig(eta=1e-4, beta=0.5, max_backtracks=59)


def damped_newton(value: Callable[[Vector], float],
                  gradient: Callable[[Vector], Vector],
                  newton_solve: Callable[[Vector, Vector], Vector],
                  x: Vector, tol: float, max_iters: int) -> Vector:
    """Minimize a smooth convex function by Newton steps from ``x``.

    ``newton_solve(x, g)`` returns the direction ``d`` solving
    ``H(x) d = -g``.  Each step length comes from :func:`backtrack`: halving
    from ``t = 1`` for at most 60 trials until the Armijo test with
    parameter 1e-4 holds, non-finite trial values rejected.  Returns the
    first iterate with ``||g|| <= tol`` and raises :class:`RuntimeError` if
    none is reached within ``max_iters`` iterations.
    """
    gnorm = math.inf
    for _ in range(max_iters):
        g = gradient(x)
        gnorm = np.linalg.norm(g)
        if gnorm <= tol:
            return x
        d = newton_solve(x, g)
        f0 = value(x)
        # rounding slack: near the optimum the predicted decrease drops below
        # the float resolution of f, which must not stall the full Newton step
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(f0))
        t = backtrack(lambda t: value(x + t * d), f0, float(g @ d),
                      _NEWTON_SEARCH, slack).t
        x = x + t * d
    raise RuntimeError(
        f"damped Newton did not reach ||grad|| <= {tol} in {max_iters} "
        f"iterations (last ||grad|| = {gnorm:.3e})")
