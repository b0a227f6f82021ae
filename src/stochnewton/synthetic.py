"""Strongly convex synthetic test problems with controlled Gaussian noise.

The objective is

    phi(x) = sum_i lambda_i * (exp(x_i) - x_i) + (x - e)^T A (x - e),

with ``lambda_i`` logarithmically spaced in ``[1, kappa]``, ``A`` symmetric
positive definite with eigenvalues ``lambda_i`` and ``e`` the all-ones
vector.  ``A`` is built either as an explicit dense matrix (random
orthogonal basis) or in factored form ``A = V D V^T`` with ``V`` a product
of three Householder reflectors, which keeps every matvec O(n) and never
materializes ``V``.  Either way ``A`` has exactly the eigenvalues
``lambda_i``, so ``lambda_min(A) = 1`` and ``cond(A) = kappa``.  Every
product with a factored ``A`` uses its compact form ``A = D + Z M Z^T``
(``Z`` of size n x 6): one elementwise product and two thin matrix-vector
products, for the exact objective and gradient and for the sampled
Hessian alike.  Both the sampled and the exact Hessian are a diagonal plus
that rank-6 term.  The sampled Hessian's Newton systems are solved by CG
preconditioned by the diagonal, in at most 7 iterations in exact
arithmetic; the reference optimum solves each of its Newton systems
directly by Sherman-Morrison-Woodbury in O(n k^2) (k = 6).

Noise model: ``f = phi + eps_f`` with ``eps_f ~ N(0, sigma)``; gradient
noise is i.i.d. ``N(0, sigma)`` per coordinate; Hessian noise is a diagonal
matrix with ``N(0, sigma)`` entries, redrawn at every evaluation and frozen
inside the returned operator handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import EvalCounts, OracleSample, RngStream, Vector, as_vector
# solve_cg goes unused here; perfbench/tracer.py patches synthetic.solve_cg
from .linalg import SpdOperator, damped_newton, solve_cg, solve_direct  # noqa: F401

HESS_DENSE = "dense"
HESS_HOUSEHOLDER = "householder"


class HouseholderOperator:
    """``A = V D V^T`` with ``V = (I - 2 v3 v3^T)(I - 2 v2 v2^T)(I - 2 v1 v1^T)``.

    ``D`` holds positive, finite diagonal entries and each ``v_j`` has unit
    norm.  The reflectors ``vs`` define the operator, but only the
    constructor reads them, to derive its compact form once:
    ``V = I - P T P^T`` with ``P = [v1 v2 v3]`` and ``T`` lower triangular
    with 2 on its diagonal (Schreiber & Van Loan 1989), hence
    ``A = D + Z M Z^T`` with
    ``Z = [P, D P]`` and ``M = [[T (P^T D P) T^T, -T], [-T^T, 0]]``.  Every
    product with ``A`` uses that form: :meth:`apply` for the exact
    objective, :meth:`hessian_matvec` for the sampled Hessian, and
    :meth:`hessian_solve`, the direct partner of :meth:`hessian_matvec`,
    for the reference optimum's Newton steps.
    """

    __slots__ = ("d", "vs", "_zt", "_m")

    def __init__(self, d: np.ndarray, vs):
        self.d = np.asarray(d, dtype=np.float64)
        if not np.all((self.d > 0) & (self.d < np.inf)):  # NaN fails too
            raise ValueError("diagonal entries must be positive and finite")
        self.vs = [np.asarray(v, dtype=np.float64) for v in vs]
        for v in self.vs:
            if v.shape != self.d.shape:
                raise ValueError(f"reflector vector has length {v.size}, "
                                 f"diagonal has length {self.d.size}")
            nrm = np.linalg.norm(v)
            if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
                raise ValueError(f"reflector vector norm {nrm} != 1")
        # V^T = H1 H2 H3 = I - P T^T P^T, accumulated one reflector at a time
        k = len(self.vs)
        pt = np.array(self.vs).reshape(k, self.d.size)
        tu = np.zeros((k, k))
        for j in range(k):
            tu[:j, j] = -2.0 * (tu[:j, :j] @ (pt[:j] @ pt[j]))
            tu[j, j] = 2.0
        t = tu.T
        dpt = pt * self.d
        self._zt = np.ascontiguousarray(np.vstack([pt, dpt]))
        self._m = np.block([[t @ (pt @ dpt.T) @ t.T, -t],
                            [-t.T, np.zeros((k, k))]])

    @property
    def n(self) -> int:
        return self.d.size

    def apply(self, x: Vector) -> Vector:
        y = self.d * x
        y += self._zt.T @ (self._m @ (self._zt @ x))
        return y

    def hessian_matvec(self, c: Vector):
        """The matvec ``v -> (diag(c) + 2 A) v`` in the compact form.

        Returns ``(matvec, delta)``: the matrix is
        ``Delta + Z (2 M) Z^T`` with ``Delta = diag(c + 2 D)``, and ``delta``
        holds ``c + 2 D``, the diagonal part that preconditions its CG
        solves (see :func:`~stochnewton.linalg.solve_cg`).
        """
        delta = c + 2.0 * self.d
        zt, z, m2 = self._zt, self._zt.T, 2.0 * self._m

        def matvec(v):
            out = delta * v
            out += z @ (m2 @ (zt @ v))
            return out
        return matvec, delta

    def hessian_solve(self, c: Vector, rhs: Vector) -> Vector:
        """Solve ``(diag(c) + 2 A) d = rhs`` directly, O(n k^2) for any kappa.

        Sherman-Morrison-Woodbury on the compact form (Hager 1989): with
        ``Delta = diag(c + 2 D)`` and ``u = Delta^-1 rhs``, one 2k x 2k
        capacitance solve ``(I + 2 M Z^T Delta^-1 Z) y = 2 M Z^T u`` gives
        ``d = u - Delta^-1 Z y``.  ``c + 2 D`` must be positive and finite.
        """
        delta = c + 2.0 * self.d
        zt, m2 = self._zt, 2.0 * self._m
        u = rhs / delta
        zt_scaled = zt / delta
        cap = np.eye(m2.shape[0]) + m2 @ (zt_scaled @ zt.T)
        y = np.linalg.solve(cap, m2 @ (zt @ u))
        return u - zt_scaled.T @ y


def _log_spaced(n: int, kappa: float) -> np.ndarray:
    lambdas = np.logspace(0.0, math.log10(kappa), n)
    lambdas[0] = 1.0
    lambdas[-1] = kappa
    return lambdas


@dataclass
class ConvexRandomProblem:
    """One instance of the synthetic family, with exact-oracle access."""

    n: int
    kappa: float
    sigma: float
    lambdas: np.ndarray
    hess_form: str
    a_dense: Optional[np.ndarray] = None
    a_factored: Optional[HouseholderOperator] = None
    x_star: Optional[Vector] = None
    f_star: Optional[float] = None
    ones: Vector = field(init=False)

    def __post_init__(self):
        self.ones = np.ones(self.n)
        if (self.a_dense is None) == (self.a_factored is None):
            raise ValueError("exactly one of a_dense / a_factored must be set")

    # -- exact oracle ------------------------------------------------------

    def quad_apply(self, v: Vector) -> Vector:
        if self.a_dense is not None:
            return self.a_dense @ v
        return self.a_factored.apply(v)

    def value(self, x: Vector) -> float:
        # wild trial points overflow exp and the quadratic (inf - inf is
        # nan); the line search rejects non-finite values, so do not warn
        r = x - self.ones
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.lambdas @ (np.exp(x) - x) + r @ self.quad_apply(r))

    def gradient(self, x: Vector) -> Vector:
        with np.errstate(over="ignore"):
            return self.lambdas * (np.exp(x) - 1.0) + 2.0 * self.quad_apply(x - self.ones)

    def hess_diag_part(self, x: Vector) -> Vector:
        with np.errstate(over="ignore"):
            return self.lambdas * np.exp(x)

    def hess_dense(self, x: Vector) -> np.ndarray:
        if self.a_dense is None:
            raise ValueError("dense Hessian unavailable for factored problems")
        return np.diag(self.hess_diag_part(x)) + 2.0 * self.a_dense

    def metadata(self) -> dict:
        return {
            "n": self.n,
            "kappa": self.kappa,
            "sigma": self.sigma,
            "hess_form": self.hess_form,
        }


def generate_problem(n: int, kappa: float, sigma: float,
                     hess_form: str = HESS_DENSE, *,
                     rng: RngStream) -> ConvexRandomProblem:
    """Draw one problem instance; `rng` owns every draw.

    A dense ``A`` is ``Q diag(lambda) Q^T`` with ``Q`` from the QR
    factorization of a Gaussian matrix; a factored one is
    :class:`HouseholderOperator` over three random unit reflectors.  Both
    have exactly the eigenvalues ``lambda_i``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 < kappa < math.inf:
        raise ValueError("kappa must be finite and > 1")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and >= 0")

    lambdas = _log_spaced(n, kappa)

    if hess_form == HESS_DENSE:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))  # fix the QR sign convention
        a = (q * lambdas) @ q.T
        a = 0.5 * (a + a.T)
        return ConvexRandomProblem(n, kappa, sigma, lambdas, hess_form,
                                   a_dense=a)

    if hess_form == HESS_HOUSEHOLDER:
        vs = []
        for _ in range(3):
            v = rng.standard_normal(n)
            vs.append(v / np.linalg.norm(v))
        op = HouseholderOperator(lambdas, vs)
        return ConvexRandomProblem(n, kappa, sigma, lambdas, hess_form,
                                   a_factored=op)

    raise ValueError(f"unknown hess_form {hess_form!r}")


class NoisyOracle:
    """The counted noisy oracle of one problem, drawing from one stream.

    Also answers exact queries, ``true_error(x, f_star)``, which solvers
    use for true-error traces; those do not touch the noise stream or the
    counters.
    """

    def __init__(self, problem: ConvexRandomProblem, rng: RngStream):
        self.problem = problem
        self.rng = rng
        self.n = problem.n
        self._f_evals = 0
        self._g_evals = 0
        self._hvp_evals = 0

    def sample(self, x: Vector, *, want_value=False, want_gradient=False,
               want_hessian=False) -> OracleSample:
        """One noisy evaluation; draws happen in a fixed (f, g, B) order.

        With ``sigma == 0`` the exact quantities are returned.  The Hessian
        handle freezes its diagonal noise realization, so all matvecs within
        one sample see the same perturbed matrix; each matvec counts one
        Hessian-vector product.  A factored problem's handle carries the
        diagonal part of its matrix, which preconditions its CG solves.
        """
        p = self.problem
        x = as_vector(x, p.n)
        value = gradient = hess = None
        if want_value:
            self._f_evals += 1
            value = p.value(x) + self.rng.normal(0.0, p.sigma)
        if want_gradient:
            self._g_evals += 1
            gradient = p.gradient(x) + self.rng.normal(0.0, p.sigma, p.n)
        if want_hessian:
            noise = self.rng.normal(0.0, p.sigma, p.n)
            dense = delta = None
            if p.a_dense is not None:
                dense = p.hess_dense(x)
                dense[np.diag_indices(p.n)] += noise
                apply = dense.__matmul__
            else:
                apply, delta = p.a_factored.hessian_matvec(
                    p.hess_diag_part(x) + noise)

            def matvec(v):
                self._hvp_evals += 1
                return apply(v)

            hess = SpdOperator(p.n, matvec=matvec, dense=dense, diag=delta)
        return OracleSample(value=value, gradient=gradient, hessian=hess)

    def counts(self) -> EvalCounts:
        return EvalCounts(self._f_evals, self._g_evals, self._hvp_evals)

    # exact-side query (instrumentation, never noisy)
    def true_error(self, x: Vector, f_star: float) -> float:
        return self.problem.value(x) - f_star


def exact_solution(problem: ConvexRandomProblem, tol: float = 1e-8,
                   max_iters: int = 200) -> tuple[Vector, float]:
    """Minimize the exact objective by damped Newton; caches the result.

    Every Newton system is solved directly: by Cholesky
    (:func:`~stochnewton.linalg.solve_direct`) for dense problems and by
    :meth:`HouseholderOperator.hessian_solve`, O(n k^2) for any ``kappa``,
    for factored ones.  The loop stops at ``||g|| <= tol`` or once the
    Newton decrement is below the rounding of ``f`` (the gradient, a
    difference of terms up to ``max lambda`` in size, may stall above
    `tol`), and fails loudly if neither happens within ``max_iters``
    iterations (see :func:`~stochnewton.linalg.damped_newton`).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if problem.x_star is not None and problem.f_star is not None:
        return problem.x_star, problem.f_star

    def newton_solve(x, g):
        if problem.a_dense is not None:
            return solve_direct(problem.hess_dense(x), -g)
        return problem.a_factored.hessian_solve(problem.hess_diag_part(x), -g)

    x = damped_newton(problem.value, problem.gradient, newton_solve,
                      np.zeros(problem.n), tol, max_iters)
    problem.x_star = x
    problem.f_star = problem.value(x)
    return problem.x_star, problem.f_star
