"""Direct and CG solvers for SPD systems, plus the tests' finite-difference
checkers (``conftest.py``)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from stochnewton.linalg import (NotPositiveDefiniteError, SpdOperator,
                                damped_newton, solve_cg, solve_direct)

from conftest import fd_gradient_check, fd_hvp_check, random_spd


def _reference_cg(op, rhs, rel_tol, max_iters):
    """The allocating CG loop that solve_cg replaced, kept as its reference."""
    rhs_norm = float(np.linalg.norm(rhs))
    d = np.zeros(op.n)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    iters = 0
    threshold = rel_tol * rhs_norm
    while iters < max_iters and np.sqrt(rs) > threshold:
        bp = op.apply(p)
        curv = float(p @ bp)
        alpha = rs / curv
        d += alpha * p
        iters += 1
        if iters % 50 == 0:
            r = rhs - op.apply(d)
        else:
            r -= alpha * bp
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    final = float(np.linalg.norm(rhs - op.apply(d))) / rhs_norm
    return d, final, iters


class TestSpdOperator:
    def test_linearity_and_symmetry_probes(self, rng):
        op = SpdOperator.from_dense(random_spd(12, rng))
        for _ in range(20):
            u = rng.standard_normal(12)
            v = rng.standard_normal(12)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lin = op.apply(a * u + b * v) - (a * op.apply(u) + b * op.apply(v))
            assert np.max(np.abs(lin)) < 1e-10
            assert abs(u @ op.apply(v) - v @ op.apply(u)) < 1e-10

    def test_needs_matrix_or_matvec(self):
        with pytest.raises(ValueError):
            SpdOperator(3)


class TestSolveDirect:
    def test_identity(self):
        r = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(solve_direct(SpdOperator.from_dense(np.eye(3)), r), r)

    def test_diagonal(self):
        op = SpdOperator.from_dense(np.diag([1.0, 2.0, 4.0]))
        d = solve_direct(op, np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(d, np.ones(3), atol=1e-14)

    def test_random_spd_residual(self, rng):
        b = random_spd(8, rng)
        rhs = rng.standard_normal(8)
        d = solve_direct(SpdOperator.from_dense(b), rhs)
        assert np.linalg.norm(b @ d - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_indefinite_raises(self, rng):
        b = random_spd(6, rng)
        b[0, 0] = -5.0
        with pytest.raises(NotPositiveDefiniteError):
            solve_direct(SpdOperator.from_dense(b), rng.standard_normal(6))

    def test_requires_explicit_matrix(self):
        op = SpdOperator(3, matvec=lambda v: v)
        with pytest.raises(ValueError):
            solve_direct(op, np.ones(3))

    def test_lapack_loads_at_the_first_dense_factorization(self):
        # a child process: other tests load scipy.linalg into this one
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from stochnewton.harness import ExperimentSpec, run_experiment
            from stochnewton.linalg import SpdOperator, solve_direct
            run_experiment(ExperimentSpec.from_mapping({
                "problem.kind": "synthetic", "problem.n": "50",
                "problem.hess_form": "householder", "run.solvers": "lsos",
                "run.max_iters": "5", "run.reps": "1"}))
            assert "scipy.linalg" not in sys.modules
            b = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
            rhs = np.array([1.0, -2.0, 0.5])
            d = solve_direct(SpdOperator.from_dense(b), rhs)
            assert "scipy.linalg" in sys.modules
            import scipy.linalg
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(b, lower=True), rhs)
            assert np.array_equal(d, ref)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", code],
                               env={**os.environ, "PYTHONPATH": path},
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr


class TestSolveCg:
    def test_identity_one_iteration(self):
        rhs = np.array([1.0, 2.0, -1.0])
        res = solve_cg(SpdOperator.from_dense(np.eye(3)), rhs, rel_tol=1e-12)
        assert res.iters == 1
        np.testing.assert_allclose(res.d, rhs, atol=1e-14)

    def test_finite_termination_three_distinct_eigenvalues(self, rng):
        # CG converges in at most k iterations when B has k distinct
        # eigenvalues; verified for {1, 4, 9} at n = 20
        n = 20
        eigs = np.array([1.0] * 7 + [4.0] * 7 + [9.0] * 6)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        b = (q * eigs) @ q.T
        res = solve_cg(SpdOperator.from_dense(b), rng.standard_normal(n),
                       rel_tol=1e-12)
        assert res.iters <= 3
        assert res.rel_res <= 1e-12

    def test_certificate_matches_recomputation(self, rng):
        b = random_spd(25, rng, 1, 50)
        rhs = rng.standard_normal(25)
        res = solve_cg(SpdOperator.from_dense(b), rhs, rel_tol=1e-4)
        recomputed = np.linalg.norm(b @ res.d - rhs) / np.linalg.norm(rhs)
        assert abs(res.rel_res - recomputed) < 1e-12
        assert res.rel_res <= 1e-4

    def test_agrees_with_direct_solve(self, rng):
        b = random_spd(100, rng, 1, 100)
        rhs = rng.standard_normal(100)
        op = SpdOperator.from_dense(b)
        d_cg = solve_cg(op, rhs, rel_tol=1e-10).d
        d_direct = solve_direct(op, rhs)
        assert np.linalg.norm(d_cg - d_direct) / np.linalg.norm(d_direct) < 1e-6

    def test_negative_curvature_detected(self, rng):
        b = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError):
            solve_cg(SpdOperator.from_dense(b), np.array([1.0, 1.0, 1.0]),
                     rel_tol=1e-8)

    def test_rel_tol_validation(self):
        op = SpdOperator.from_dense(np.eye(2))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                solve_cg(op, np.ones(2), rel_tol=bad)

    def test_zero_rhs(self):
        res = solve_cg(SpdOperator.from_dense(np.eye(4)), np.zeros(4), 1e-8)
        assert res.iters == 0 and res.rel_res == 0.0
        assert np.array_equal(res.d, np.zeros(4))

    def test_deterministic(self, rng):
        b = random_spd(15, rng)
        rhs = rng.standard_normal(15)
        op = SpdOperator.from_dense(b)
        r1 = solve_cg(op, rhs, 1e-8)
        r2 = solve_cg(op, rhs, 1e-8)
        assert np.array_equal(r1.d, r2.d) and r1.iters == r2.iters

    def test_same_arithmetic_as_reference_loop_through_refresh(self, rng):
        # kappa 1e4 at n = 200 needs well over 50 iterations, so the
        # residual refresh runs at least once
        op = SpdOperator.from_dense(random_spd(200, rng, 1.0, 1e4))
        rhs = rng.standard_normal(200)
        res = solve_cg(op, rhs, rel_tol=1e-10, max_iters=1000)
        d, rel_res, iters = _reference_cg(op, rhs, 1e-10, 1000)
        assert res.iters == iters > 50
        assert np.array_equal(res.d, d) and res.rel_res == rel_res

    def test_same_arithmetic_as_reference_loop_at_max_iters(self, rng):
        op = SpdOperator.from_dense(random_spd(60, rng, 1.0, 1e3))
        rhs = rng.standard_normal(60)
        res = solve_cg(op, rhs, rel_tol=1e-12, max_iters=7)
        d, rel_res, iters = _reference_cg(op, rhs, 1e-12, 7)
        assert res.iters == iters == 7 and res.rel_res > 1e-12
        assert np.array_equal(res.d, d) and res.rel_res == rel_res

    def test_matvec_backed_operator(self, rng):
        b = random_spd(30, rng)
        applies = []

        def matvec(v):
            applies.append(1)
            return b @ v

        op = SpdOperator(30, matvec=matvec)
        rhs = rng.standard_normal(30)
        res = solve_cg(op, rhs, rel_tol=1e-10)
        assert np.linalg.norm(b @ res.d - rhs) <= 1e-10 * np.linalg.norm(rhs)
        assert len(applies) >= res.iters


def _x_minus_log_x():
    """``f(x) = x - log x`` on ``x > 0`` (minimum at 1), ``inf`` elsewhere;
    the full Newton step from ``x = 3`` lands on ``-3``."""
    def value(x):
        return float(x[0] - np.log(x[0])) if x[0] > 0 else np.inf

    def gradient(x):
        return np.array([1.0 - 1.0 / x[0]])

    def newton_solve(x, g):
        return -g * x[0] ** 2
    return value, gradient, newton_solve


class TestDampedNewton:
    def test_strictly_convex_quadratic_converges_in_one_step(self, rng):
        a = random_spd(6, rng)
        b = rng.standard_normal(6)
        solves = []

        def newton_solve(x, g):
            solves.append(x)
            return np.linalg.solve(a, -g)

        x = damped_newton(lambda x: 0.5 * x @ a @ x - b @ x, lambda x: a @ x - b,
                          newton_solve, np.zeros(6), tol=1e-10, max_iters=5)
        assert len(solves) == 1
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-10)

    def test_non_finite_trial_values_are_rejected(self):
        value, gradient, newton_solve = _x_minus_log_x()
        trials, iterates = [], []

        def logged_value(x):
            trials.append(value(x))
            return trials[-1]

        def logged_gradient(x):
            iterates.append(x[0])
            return gradient(x)

        x = damped_newton(logged_value, logged_gradient, newton_solve,
                          np.array([3.0]), tol=1e-12, max_iters=50)
        assert not all(np.isfinite(trials))
        assert min(iterates) > 0
        assert abs(x[0] - 1.0) < 1e-10

    def test_too_few_iterations_raise_with_the_count_and_gradient(self):
        value, gradient, newton_solve = _x_minus_log_x()
        with pytest.raises(RuntimeError,
                           match=r"in 1 iterations \(last \|\|grad\|\| = 6\.667e-01\)"):
            damped_newton(value, gradient, newton_solve, np.array([3.0]),
                          tol=1e-12, max_iters=1)


class TestFiniteDifferences:
    def test_quadratic_is_exact_to_rounding(self, rng):
        x = rng.standard_normal(6)
        err = fd_gradient_check(lambda z: 0.5 * float(z @ z), lambda z: z, x,
                                h=1e-5)
        assert err <= 1e-9

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_gradient_check(lambda z: 0.0, lambda z: z, np.ones(2), h=0.0)

    def test_detects_wrong_gradient(self, rng):
        x = rng.standard_normal(4)
        err = fd_gradient_check(lambda z: 0.5 * float(z @ z), lambda z: 2 * z, x)
        assert err > 1e-2

    def test_hvp_check(self, rng):
        b = random_spd(5, rng)
        x, v = rng.standard_normal(5), rng.standard_normal(5)
        err = fd_hvp_check(lambda z: b @ z, lambda z, w: b @ w, x, v)
        assert err <= 1e-8
