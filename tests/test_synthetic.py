"""Synthetic strongly convex problems: spectra, factored forms, noise model."""

import numpy as np
import pytest
from scipy.optimize import brentq

from stochnewton import synthetic
from stochnewton.core import RngStream
from stochnewton.linalg import SpdOperator, solve_cg, solve_direct
from stochnewton.synthetic import (ConvexRandomProblem, HESS_DENSE,
                                   HESS_HOUSEHOLDER, HouseholderOperator,
                                   NoisyOracle, exact_solution,
                                   generate_problem)

from conftest import fd_gradient_check, reference_cg


def _problem(n=10, kappa=100.0, sigma=0.0, form=HESS_DENSE, seed=0):
    return generate_problem(n, kappa, sigma, hess_form=form,
                            rng=RngStream(seed, 0))


def _reflector_product(op):
    """Dense ``V D V^T`` with ``V = H3 H2 H1`` multiplied out reflector by
    reflector, independent of the compact form the operator computes with."""
    v = np.eye(op.n)
    for u in op.vs:
        v = (np.eye(op.n) - 2.0 * np.outer(u, u)) @ v
    return (v * op.d) @ v.T


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
        eigs = np.linalg.eigvalsh(_reflector_product(p.a_factored))
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
        rng = RngStream(0, 0)
        with pytest.raises(ValueError):
            generate_problem(4, 10.0, -1.0, rng=rng)
        for kappa, sigma in [(np.inf, 0.0), (np.nan, 0.0), (10.0, np.inf),
                             (10.0, np.nan)]:
            with pytest.raises(ValueError, match="finite"):
                generate_problem(4, kappa, sigma, rng=rng)
        with pytest.raises(ValueError):
            generate_problem(4, 10.0, 0.0, hess_form="banded", rng=rng)


class TestHouseholderOperator:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            HouseholderOperator(np.ones(3), [np.array([1.0, 1.0, 0.0])] * 3)

    def test_positive_diagonal_required(self):
        v = np.zeros(3)
        v[0] = 1.0
        with pytest.raises(ValueError):
            HouseholderOperator(np.array([1.0, -1.0, 2.0]), [v, v, v])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_diagonal_required(self, bad):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="diagonal"):
            HouseholderOperator(np.array([1.0, bad, 2.0]), [v, v, v])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_reflector_required(self, bad):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="reflector"):
            HouseholderOperator(np.ones(3), [v, np.array([bad, 0.0, 0.0]), v])

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    @pytest.mark.parametrize("kappa", [1e2, 1e6])
    def test_apply_matches_dense_on_random_probes(self, n, kappa):
        # both sides are backward-stable products of O(n) flops per entry,
        # so each errs by a few n eps relative to ||A|| ||v|| = kappa ||v||;
        # 1e-13 is 450 eps, ample for n <= 50
        p = _problem(n=n, kappa=kappa, form=HESS_HOUSEHOLDER, seed=n)
        dense = _reflector_product(p.a_factored)
        draw = RngStream(n, 1)
        for _ in range(20):
            v = draw.standard_normal(n)
            err = np.linalg.norm(p.a_factored.apply(v) - dense @ v)
            assert err <= 1e-13 * kappa * np.linalg.norm(v)

    def test_reflector_length_must_match_diagonal(self):
        with pytest.raises(ValueError, match="length 2.*length 3"):
            HouseholderOperator(np.ones(3), [np.array([1.0, 0.0])] * 3)

    def test_hessian_matvec_matches_dense_on_random_probes(self, rng):
        # the compact form differs from the reflector product only by rounding:
        # about 4500 float64 eps relative to the output leaves room for n = 50
        p = _problem(n=50, kappa=100.0, form=HESS_HOUSEHOLDER, seed=3)
        c = rng.standard_normal(50)
        dense = np.diag(c) + 2.0 * _reflector_product(p.a_factored)
        matvec, delta = p.a_factored.hessian_matvec(c)
        assert np.array_equal(delta, c + 2.0 * p.a_factored.d)
        for _ in range(100):
            v = rng.standard_normal(50)
            ref = dense @ v
            assert np.max(np.abs(matvec(v) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 5, 200])
    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
    def test_hessian_solve_matches_dense_solve(self, n, kappa, scale):
        # any solve of diag(c) + 2A loses accuracy with its conditioning,
        # which grows with kappa; for n < 6 the 6 x 6 capacitance system is
        # itself ill-conditioned.  Allow 1e-13 * kappa relative, both for the
        # residual and for the distance to the dense solution
        p = _problem(n=n, kappa=kappa, form=HESS_HOUSEHOLDER, seed=n)
        draw = RngStream(n, 1)
        c = scale * p.lambdas * np.exp(draw.uniform(-1.0, 1.0, n))
        rhs = draw.standard_normal(n)
        dense = np.diag(c) + 2.0 * _reflector_product(p.a_factored)
        d = p.a_factored.hessian_solve(c, rhs)
        ref = np.linalg.solve(dense, rhs)
        bound = 1e-13 * kappa
        assert np.linalg.norm(dense @ d - rhs) <= bound * np.linalg.norm(rhs)
        assert np.linalg.norm(d - ref) <= bound * np.linalg.norm(ref)


class TestPreconditionedCg:
    """The sampled Householder Hessian is ``Delta + Z (2M) Z^T`` with a
    positive diagonal ``Delta`` and a rank-6 term, so CG preconditioned by
    ``Delta`` sees at most 7 distinct eigenvalues: 7 iterations in exact
    arithmetic, a few more in floating point at large kappa."""

    @pytest.mark.parametrize("n", [50, 2000])
    @pytest.mark.parametrize("kappa, rel_tol, bound", [
        (1e2, 1e-6, 7), (1e2, 1e-10, 7),
        (1e4, 1e-10, 20), (1e6, 1e-10, 20), (1e8, 1e-10, 20)])
    @pytest.mark.parametrize("start", ["zeros", "gauss5"])
    def test_sampled_newton_system_solves_in_few_iterations(
            self, n, kappa, rel_tol, bound, start):
        p = _problem(n=n, kappa=kappa, sigma=1e-3, form=HESS_HOUSEHOLDER,
                     seed=n)
        x = (np.zeros(n) if start == "zeros"
             else RngStream(n, 1).normal(0.0, 5.0, n))
        s = NoisyOracle(p, RngStream(n, 2)).sample(
            x, want_gradient=True, want_hessian=True)
        res = solve_cg(s.hessian, -s.gradient, rel_tol)
        assert res.iters <= bound
        assert res.rel_res <= rel_tol

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_non_positive_diagonal_part_runs_plain_cg(self, shift):
        # c_0 = -2 lambda_0 - shift makes Delta_0 = -shift <= 0 while the
        # matrix itself stays positive definite
        p = _problem(n=50, kappa=100.0, form=HESS_HOUSEHOLDER, seed=4)
        c = p.lambdas.copy()
        c[0] = -2.0 * p.lambdas[0] - shift
        matvec, delta = p.a_factored.hessian_matvec(c)
        assert delta[0] == -shift
        dense = np.diag(c) + 2.0 * _reflector_product(p.a_factored)
        assert np.linalg.eigvalsh(dense)[0] > 0
        rhs = RngStream(4, 1).standard_normal(50)
        given = solve_cg(SpdOperator(50, matvec=matvec, diag=delta), rhs, 1e-10)
        d, rel_res, iters = reference_cg(SpdOperator(50, matvec=matvec), rhs,
                                         1e-10, 100)
        assert np.array_equal(given.d, d)
        assert given.iters == iters and given.rel_res == rel_res

    def test_non_finite_diagonal_part_runs_plain_cg(self):
        p = _problem(n=50, kappa=100.0, form=HESS_HOUSEHOLDER, seed=4)
        matvec, delta = p.a_factored.hessian_matvec(p.lambdas.copy())
        delta = delta.copy()
        delta[7] = np.nan
        rhs = RngStream(4, 2).standard_normal(50)
        given = solve_cg(SpdOperator(50, matvec=matvec, diag=delta), rhs, 1e-10)
        d, rel_res, iters = reference_cg(SpdOperator(50, matvec=matvec), rhs,
                                         1e-10, 100)
        assert np.array_equal(given.d, d)
        assert given.iters == iters and given.rel_res == rel_res


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
        exact_solution(p)
        assert oracle.true_error(p.x_star, p.f_star) == \
            pytest.approx(0.0, abs=1e-12)


@pytest.fixture
def no_cg(monkeypatch):
    """Factored reference optima solve their Newton systems directly."""
    def fail(*args, **kwargs):
        raise AssertionError("exact_solution called solve_cg")
    monkeypatch.setattr(synthetic, "solve_cg", fail)


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

    def test_factored_form_supported(self, no_cg):
        p = _problem(n=40, kappa=100.0, form=HESS_HOUSEHOLDER, seed=14)
        x_star, _ = exact_solution(p, tol=1e-8)
        assert np.linalg.norm(p.gradient(x_star)) <= 1e-8

    def test_large_ill_conditioned_factored_problem(self, no_cg):
        # Newton steps by CG took about 13 s here; the direct solve does not
        # depend on kappa
        p = _problem(n=20_000, kappa=1e6, form=HESS_HOUSEHOLDER, seed=15)
        x_star, _ = exact_solution(p, tol=1e-8)
        assert np.linalg.norm(p.gradient(x_star)) <= 1e-8

    def test_dense_ill_conditioned_problem_stops_on_the_decrement(self):
        # ||g|| stalls near 2e-8, above tol = 1e-8, while the Newton
        # decrement -g^T d falls to about 1e-19 against eps |f| = 3e-8
        p = _problem(n=2000, kappa=1e6, sigma=0.1, seed=0)
        x_star, f_star = exact_solution(p, tol=1e-8)
        g = p.gradient(x_star)
        d = solve_direct(p.hess_dense(x_star), -g)
        assert -(g @ d) <= 8 * np.finfo(float).eps * abs(f_star)
        assert np.linalg.norm(g) <= 1e-7

    @pytest.mark.parametrize("n, seed", [(4, 2), (50, 0)])
    def test_kappa_1e8_factored_problem_converges(self, no_cg, n, seed):
        # the gradient is a difference of kappa-sized terms (ulp 1.49e-8 at
        # kappa = 1e8), so it cannot reach tol = 1e-8; the Newton decrement
        # stops the loop instead
        p = _problem(n=n, kappa=1e8, form=HESS_HOUSEHOLDER, seed=seed)
        x_star, _ = exact_solution(p, tol=1e-8)
        assert np.linalg.norm(p.gradient(x_star)) <= 32 * np.finfo(float).eps * 1e8

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            exact_solution(_problem(), tol=0.0)
