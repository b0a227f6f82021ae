"""Synthetic strongly convex problems: spectra, factored forms, noise model."""

import numpy as np
import pytest
from scipy.optimize import brentq

from stochnewton.core import RngStream
from stochnewton.linalg import fd_gradient_check
from stochnewton.synthetic import (ConvexRandomProblem, HESS_DENSE,
                                   HESS_HOUSEHOLDER, HouseholderOperator,
                                   NoisyOracle, exact_solution,
                                   generate_problem)


def _problem(n=10, kappa=100.0, sigma=0.0, form=HESS_DENSE, seed=0, density=1.0):
    return generate_problem(n, kappa, sigma, hess_form=form, density=density,
                            rng=RngStream(seed, 0))


class TestSpectrum:
    def test_log_spacing_n4(self):
        p = _problem(n=4, kappa=100.0)
        expected = [1.0, 100.0 ** (1 / 3), 100.0 ** (2 / 3), 100.0]
        np.testing.assert_allclose(p.lambdas, expected, rtol=1e-12)
        assert p.lambdas[0] == 1.0 and p.lambdas[-1] == 100.0

    def test_ratio_constant(self):
        p = _problem(n=9, kappa=1e4)
        ratios = p.lambdas[1:] / p.lambdas[:-1]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-12

    def test_dense_matrix_has_prescribed_eigenvalues(self):
        p = _problem(n=10, kappa=1e3)
        eigs = np.linalg.eigvalsh(p.a_dense)
        np.testing.assert_allclose(np.sort(eigs), p.lambdas, atol=1e-10)

    def test_householder_matrix_has_prescribed_eigenvalues(self):
        p = _problem(n=10, kappa=1e3, form=HESS_HOUSEHOLDER)
        eigs = np.linalg.eigvalsh(p.a_factored.materialize())
        np.testing.assert_allclose(np.sort(eigs), p.lambdas, atol=1e-10)

    def test_spd_probe(self, rng):
        p = _problem(n=16, kappa=50.0)
        for _ in range(20):
            v = rng.standard_normal(16)
            assert v @ (p.a_dense @ v) > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _problem(n=0)
        with pytest.raises(ValueError):
            _problem(kappa=1.0)
        with pytest.raises(ValueError):
            generate_problem(4, 10.0, -1.0)
        with pytest.raises(ValueError):
            generate_problem(4, 10.0, 0.0, density=0.0)
        with pytest.raises(ValueError):
            generate_problem(4, 10.0, 0.0, hess_form="banded")


class TestHouseholderOperator:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            HouseholderOperator(np.ones(3), [np.array([1.0, 1.0, 0.0])] * 3)

    def test_apply_matches_dense_on_random_probes(self, rng):
        p = _problem(n=50, kappa=100.0, form=HESS_HOUSEHOLDER, seed=3)
        dense = p.a_factored.materialize()
        for _ in range(100):
            v = rng.standard_normal(50)
            err = np.max(np.abs(p.a_factored.apply(v) - dense @ v))
            assert err < 1e-10

    def test_positive_diagonal_required(self):
        v = np.zeros(3)
        v[0] = 1.0
        with pytest.raises(ValueError):
            HouseholderOperator(np.array([1.0, -1.0, 2.0]), [v, v, v])

    def test_reflector_length_must_match_diagonal(self):
        with pytest.raises(ValueError, match="length 2.*length 3"):
            HouseholderOperator(np.ones(3), [np.array([1.0, 0.0])] * 3)

    def test_hessian_matvec_matches_dense_on_random_probes(self, rng):
        # the compact form differs from the reflector loop only by rounding:
        # about 4500 float64 eps relative to the output leaves room for n = 50
        p = _problem(n=50, kappa=100.0, form=HESS_HOUSEHOLDER, seed=3)
        c = rng.standard_normal(50)
        dense = np.diag(c) + 2.0 * p.a_factored.materialize()
        matvec = p.a_factored.hessian_matvec(c)
        for _ in range(100):
            v = rng.standard_normal(50)
            ref = dense @ v
            assert np.max(np.abs(matvec(v) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSparsification:
    def test_density_request_records_outcome(self):
        p = _problem(n=30, kappa=10.0, density=0.5, seed=5)
        assert 0.0 < p.achieved_density <= 1.0
        # whatever was kept must still be SPD
        assert np.linalg.eigvalsh(p.a_dense)[0] > 0
        assert p.metadata()["achieved_density"] == p.achieved_density


class TestNoisyEval:
    def test_exact_at_ones_vector(self):
        p = _problem(n=6, kappa=10.0, sigma=0.0)
        e = np.ones(6)
        s = NoisyOracle(p, RngStream(0, 0)).sample(e, want_value=True,
                                                   want_gradient=True)
        expected_f = float(np.sum(p.lambdas) * (np.e - 1.0))
        assert s.value == pytest.approx(expected_f, rel=1e-13)
        np.testing.assert_allclose(s.gradient, p.lambdas * (np.e - 1.0),
                                   rtol=1e-12, atol=1e-12)

    def test_exact_gradient_at_zero_identity_quadratic(self):
        # lambdas = 1, A = I: each gradient entry at x = 0 is
        # (e^0 - 1) + 2 (0 - 1) = -2
        p = ConvexRandomProblem(n=5, kappa=2.0, sigma=0.0,
                                lambdas=np.ones(5), hess_form=HESS_DENSE,
                                a_dense=np.eye(5))
        s = NoisyOracle(p, RngStream(0, 0)).sample(np.zeros(5),
                                                   want_gradient=True)
        np.testing.assert_allclose(s.gradient, -2.0 * np.ones(5), atol=1e-14)

    def test_value_noise_unbiased(self):
        p = _problem(n=5, kappa=10.0, sigma=0.5, seed=7)
        x0 = RngStream(1, 0).standard_normal(5)
        exact = p.value(x0)
        oracle = NoisyOracle(p, RngStream(2, 0))
        k = 10**5
        draws = np.array([
            oracle.sample(x0, want_value=True).value for _ in range(k)
        ])
        assert abs(draws.mean() - exact) < 3 * 0.5 / np.sqrt(k)

    def test_gradient_noise_unbiased_per_coordinate(self):
        p = _problem(n=5, kappa=10.0, sigma=0.5, seed=8)
        x0 = RngStream(3, 0).standard_normal(5)
        exact = p.gradient(x0)
        oracle = NoisyOracle(p, RngStream(4, 0))
        k = 10**5
        acc = np.zeros(5)
        for _ in range(k):
            acc += oracle.sample(x0, want_gradient=True).gradient
        assert np.max(np.abs(acc / k - exact)) < 4 * 0.5 / np.sqrt(k)

    def test_hessian_noise_is_symmetric_diagonal(self):
        p = _problem(n=6, kappa=10.0, sigma=0.8, seed=9)
        x = RngStream(5, 0).standard_normal(6)
        s = NoisyOracle(p, RngStream(6, 0)).sample(x, want_hessian=True)
        b = s.hessian.dense
        assert np.array_equal(b, b.T)
        offdiag = b - np.diag(np.diag(b))
        exact_off = p.hess_dense(x) - np.diag(np.diag(p.hess_dense(x)))
        np.testing.assert_allclose(offdiag, exact_off, atol=1e-12)

    def test_hessian_noise_redrawn_per_evaluation(self):
        p = _problem(n=4, kappa=10.0, sigma=1.0, seed=10)
        x = np.zeros(4)
        oracle = NoisyOracle(p, RngStream(7, 0))
        b1 = oracle.sample(x, want_hessian=True).hessian.dense
        b2 = oracle.sample(x, want_hessian=True).hessian.dense
        assert not np.array_equal(np.diag(b1), np.diag(b2))

    def test_factored_hessian_handle_freezes_noise(self):
        p = _problem(n=8, kappa=10.0, sigma=1.0, form=HESS_HOUSEHOLDER, seed=11)
        x = np.zeros(8)
        h = NoisyOracle(p, RngStream(8, 0)).sample(x, want_hessian=True).hessian
        v = np.ones(8)
        assert np.array_equal(h.apply(v), h.apply(v))

    def test_dimension_mismatch(self):
        p = _problem(n=4, kappa=10.0)
        with pytest.raises(ValueError):
            NoisyOracle(p, RngStream(0, 0)).sample(np.zeros(5),
                                                   want_value=True)

    def test_non_finite_inputs_rejected(self, rng):
        # fuzz: any NaN/Inf in the query point is a typed error, not a
        # silent NaN propagation
        p = _problem(n=6, kappa=10.0, sigma=0.3)
        for _ in range(50):
            x = rng.standard_normal(6)
            x[int(rng.integers(0, 6))] = [np.nan, np.inf, -np.inf][
                int(rng.integers(0, 3))]
            with pytest.raises(ValueError):
                NoisyOracle(p, RngStream(0, 0)).sample(
                    x, want_value=True, want_gradient=True, want_hessian=True)


class TestNoisyOracle:
    def test_eval_counts_accumulate(self):
        p = _problem(n=4, kappa=10.0, sigma=0.1)
        oracle = NoisyOracle(p, RngStream(9, 0))
        oracle.sample(np.zeros(4), want_value=True)
        s = oracle.sample(np.zeros(4), want_value=True, want_gradient=True,
                          want_hessian=True)
        assert oracle.counts().f_evals == 2
        assert oracle.counts().g_evals == 1
        s.hessian.apply(np.ones(4))
        assert oracle.counts().hvp_evals == 1

    def test_true_error_requires_reference(self):
        p = _problem(n=4, kappa=10.0)
        oracle = NoisyOracle(p, RngStream(10, 0))
        assert oracle.true_error(np.zeros(4)) is None
        exact_solution(p)
        assert oracle.true_error(p.x_star) == pytest.approx(0.0, abs=1e-12)


class TestExactSolution:
    def test_scalar_problem_matches_bisection(self):
        # minimizer of e^x - x + (x-1)^2 solves e^x - 1 + 2(x-1) = 0
        p = ConvexRandomProblem(n=1, kappa=2.0, sigma=0.0,
                                lambdas=np.ones(1), hess_form=HESS_DENSE,
                                a_dense=np.eye(1))
        x_star, f_star = exact_solution(p, tol=1e-12)
        root = brentq(lambda t: np.exp(t) - 1.0 + 2.0 * (t - 1.0), -10, 10,
                      xtol=1e-14)
        assert x_star[0] == pytest.approx(root, abs=1e-10)
        assert f_star == pytest.approx(np.exp(root) - root + (root - 1) ** 2)

    def test_postcondition_gradient_norm(self):
        p = _problem(n=20, kappa=1e3, seed=12)
        x_star, _ = exact_solution(p, tol=1e-9)
        assert np.linalg.norm(p.gradient(x_star)) <= 1e-9

    def test_gradient_consistent_with_finite_differences(self):
        p = _problem(n=8, kappa=100.0, seed=13)
        x_star, _ = exact_solution(p)
        x = x_star + 0.1 * RngStream(11, 0).standard_normal(8)
        assert fd_gradient_check(p.value, p.gradient, x, h=1e-6) <= 1e-5

    def test_result_is_cached(self):
        p = _problem(n=6, kappa=10.0)
        x1, f1 = exact_solution(p)
        x2, f2 = exact_solution(p)
        assert x1 is x2 and f1 == f2

    def test_factored_form_supported(self):
        p = _problem(n=40, kappa=100.0, form=HESS_HOUSEHOLDER, seed=14)
        x_star, _ = exact_solution(p, tol=1e-8)
        assert np.linalg.norm(p.gradient(x_star)) <= 1e-8

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            exact_solution(_problem(), tol=0.0)
