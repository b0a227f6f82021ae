"""Direct and CG solvers for SPD systems, plus the finite-difference checker."""

import numpy as np
import pytest

from stochnewton.linalg import (NotPositiveDefiniteError, SpdOperator,
                                fd_gradient_check, fd_hvp_check, solve_cg,
                                solve_direct)

from conftest import random_spd


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
        op = SpdOperator.from_matvec(3, lambda v: v)
        with pytest.raises(ValueError):
            solve_direct(op, np.ones(3))


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

    def test_matvec_backed_operator(self, rng):
        b = random_spd(30, rng)
        applies = []

        def matvec(v):
            applies.append(1)
            return b @ v

        op = SpdOperator.from_matvec(30, matvec)
        rhs = rng.standard_normal(30)
        res = solve_cg(op, rhs, rel_tol=1e-10)
        assert np.linalg.norm(b @ res.d - rhs) <= 1e-10 * np.linalg.norm(rhs)
        assert len(applies) >= res.iters


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
