"""Noisy-oracle solver drivers: SOS, LSOS (exact and inexact), SGD variants."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stochnewton import solvers
from stochnewton.core import (PHASE_GAIN, PHASE_LINE_SEARCH, EvalCounts,
                              RngStream)
from stochnewton.fs_solvers import run_fs_solver
from stochnewton.linalg import SpdOperator, solve_cg
from stochnewton.solvers import DeltaSchedule, SolverConfig, run_solver
from stochnewton.steplen import BacktrackResult, LineSearchConfig, backtrack
from stochnewton.synthetic import (HESS_HOUSEHOLDER, NoisyOracle,
                                   exact_solution, generate_problem)

from conftest import (ExactQuadraticOracle, quadratic_sum_problem,
                      random_spd)


def _noisy_setup(n, kappa, sigma, seed, form="dense"):
    problem = generate_problem(n, kappa, sigma, hess_form=form,
                               rng=RngStream(seed, 2**32))
    exact_solution(problem)
    oracle = NoisyOracle(problem, RngStream(seed, 0).child(1))
    x0 = RngStream(seed, 0).child(0).normal(0, 5, n)
    return problem, oracle, x0


class TestSos:
    def test_newton_step_solves_quadratic_in_one_iteration(self, rng):
        oracle = ExactQuadraticOracle(random_spd(8, rng), rng.standard_normal(8))
        cfg = SolverConfig(method="sos", alpha0=1.0, max_iters=5,
                           grad_tol=1e-12)
        res = run_solver(oracle, cfg, rng.standard_normal(8))
        assert res.iterations == 1
        assert np.linalg.norm(res.x - oracle.x_star) <= 1e-10

    def test_gain_steps_match_schedule_exactly(self, rng):
        oracle = ExactQuadraticOracle(random_spd(5, rng))
        cfg = SolverConfig(method="sos", alpha0=0.3, T=100.0, max_iters=6)
        res = run_solver(oracle, cfg, rng.standard_normal(5))
        for rec in res.trace.records:
            assert rec.phase == PHASE_GAIN
            assert rec.step_len == pytest.approx(0.3 * 100 / (100 + rec.iter),
                                                 rel=1e-15)


class TestLsosDeterministic:
    def test_reaches_tight_gradient_tolerance(self):
        _, oracle, x0 = _noisy_setup(50, 100.0, 0.0, seed=1)
        cfg = SolverConfig(method="lsos",
                           ls=LineSearchConfig(switch_rule="step_only"),
                           max_iters=50, grad_tol=1e-8)
        res = run_solver(oracle, cfg, x0)
        assert res.stop_reason == "grad_tol"
        assert res.final_grad_norm <= 1e-8

    def test_exact_mode_reproduces_reference_damped_newton(self):
        # clean-room damped Newton loop; iterates must agree to 1e-12
        problem, _, x0 = _noisy_setup(12, 50.0, 0.0, seed=2)

        class RecordingOracle(NoisyOracle):
            xs = []

            def sample(self, x, **want):
                if want.get("want_gradient"):
                    self.xs.append(x.copy())
                return super().sample(x, **want)

        oracle = RecordingOracle(problem, RngStream(2, 0).child(1))
        cfg = SolverConfig(
            method="lsos",
            ls=LineSearchConfig(zeta_kind="zero", t_min=1e-30, t_start=1.0),
            max_iters=25, grad_tol=1e-9)
        run_solver(oracle, cfg, x0)

        x = x0.copy()
        reference = [x.copy()]
        for _ in range(len(oracle.xs) - 1):
            g = problem.gradient(x)
            d = np.linalg.solve(problem.hess_dense(x), -g)
            f0 = problem.value(x)
            t = 1.0
            while not (problem.value(x + t * d)
                       <= f0 + 1e-4 * t * float(g @ d)):
                t *= 0.5
            x = x + t * d
            reference.append(x.copy())
        for got, want in zip(oracle.xs, reference):
            assert np.linalg.norm(got - want) <= 1e-12 * max(
                1.0, np.linalg.norm(want))

    def test_bitwise_reproducible_across_runs(self):
        _, oracle1, x0 = _noisy_setup(20, 100.0, 0.3, seed=3)
        _, oracle2, _ = _noisy_setup(20, 100.0, 0.3, seed=3)
        cfg = SolverConfig(method="lsos", max_iters=60)
        r1 = run_solver(oracle1, cfg, x0)
        r2 = run_solver(oracle2, cfg, x0)
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace.column("f_hat") == r2.trace.column("f_hat")
        assert r1.trace.column("step_len") == r2.trace.column("step_len")


class TestLsosNoisy:
    def test_phase_flips_once_and_stays(self):
        _, oracle, x0 = _noisy_setup(20, 100.0, 0.5, seed=4)
        cfg = SolverConfig(method="lsos", max_iters=150)
        res = run_solver(oracle, cfg, x0)
        phases = res.trace.column("phase")
        assert res.k_tau is not None
        switch = phases.index(PHASE_GAIN)
        assert all(p == PHASE_LINE_SEARCH for p in phases[:switch])
        assert all(p == PHASE_GAIN for p in phases[switch:])

    def test_search_spends_one_value_for_f0_and_one_per_trial(self,
                                                               monkeypatch):
        # f0 and every trial are separate oracle calls, each with fresh
        # value noise; the slack zeta_k absorbs that noise
        _, oracle, x0 = _noisy_setup(20, 100.0, 0.5, seed=10)
        searches = []

        def recording(*args, **kwargs):
            searches.append(backtrack(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(solvers, "backtrack", recording)
        cfg = SolverConfig(method="lsos", ls=LineSearchConfig(t_start=8.0),
                           max_iters=1)
        res = run_solver(oracle, cfg, x0)
        assert len(searches) == 1 and searches[0].n_trials > 1
        assert res.eval_counts.f_evals == 1 + searches[0].n_trials

    def test_exhausted_search_switches_to_gain_sequence(self, monkeypatch):
        # the noisy family's exhaustion policy: deactivate the search at once
        def exhausted(*args, **kwargs):
            res = backtrack(*args, **kwargs)
            return BacktrackResult(res.t, False, res.n_trials)

        monkeypatch.setattr(solvers, "backtrack", exhausted)
        _, oracle, x0 = _noisy_setup(20, 100.0, 0.5, seed=11)
        res = run_solver(oracle, SolverConfig(method="lsos", max_iters=5), x0)
        assert res.k_tau == 0
        assert set(res.trace.column("phase")) == {PHASE_GAIN}

    def test_anchored_gain_steps_follow_schedule(self):
        _, oracle, x0 = _noisy_setup(20, 100.0, 0.5, seed=5)
        cfg = SolverConfig(method="lsos", max_iters=150)
        res = run_solver(oracle, cfg, x0)
        recs = res.trace.records
        k_tau = res.k_tau
        t_anchor = next(r.step_len for r in recs if r.iter == k_tau)
        T = cfg.T
        for r in recs:
            if r.phase == PHASE_GAIN:
                expected = t_anchor * T / (T + r.iter - k_tau)
                assert r.step_len == pytest.approx(expected, rel=1e-12)

    def test_noise_reduces_error_from_start(self):
        # statistical sanity: final error far below the wild start
        errors = []
        for rep in range(5):
            problem, oracle, x0 = _noisy_setup(20, 100.0, 0.1, seed=100 + rep)
            res = run_solver(oracle, SolverConfig(method="lsos", max_iters=80),
                             x0, problem.f_star)
            errors.append(res.trace.records[-1].true_error /
                          res.trace.records[0].true_error)
        assert np.mean(errors) < 1e-3

    def test_true_errors_measure_against_the_f_star_given(self):
        # the caller's reference, whether or not the problem has its own
        problem = generate_problem(10, 100.0, 0.1, rng=RngStream(12, 2**32))
        x0 = RngStream(12, 0).child(0).normal(0, 5, 10)
        cfg = SolverConfig(method="lsos", max_iters=5)

        def errors(f_star):
            oracle = NoisyOracle(problem, RngStream(12, 0).child(1))
            return run_solver(oracle, cfg, x0, f_star).trace.column("true_error")

        values = errors(0.0)  # before any reference optimum is computed
        assert values[0] == problem.value(x0)
        exact_solution(problem)
        assert errors(-1e9) == [v + 1e9 for v in values]


class TestLsosInexact:
    def test_residual_certificates_respect_forcing_rule(self):
        problem = generate_problem(60, 100.0, 0.01, hess_form=HESS_HOUSEHOLDER,
                                   rng=RngStream(6, 2**32))
        exact_solution(problem)
        oracle = NoisyOracle(problem, RngStream(6, 0).child(1))
        x0 = RngStream(6, 0).child(0).normal(0, 5, 60)
        cfg = SolverConfig(method="lsos_inexact",
                           delta=DeltaSchedule("geometric", rho=0.95),
                           max_iters=80)
        res = run_solver(oracle, cfg, x0)
        checked = 0
        for rec in res.trace.records:
            if rec.cg_relres is not None:
                assert rec.cg_relres <= max(0.95 ** rec.iter, 1e-6) + 1e-15
                checked += 1
        assert checked == len(res.trace)

    def test_unclamped_tolerance_still_moves(self):
        # delta_0 = 1 would accept d = 0 without the clamp; the first
        # iteration must still make progress
        problem = generate_problem(30, 50.0, 0.0, hess_form=HESS_HOUSEHOLDER,
                                   rng=RngStream(7, 2**32))
        oracle = NoisyOracle(problem, RngStream(7, 0))
        cfg = SolverConfig(method="lsos_inexact",
                           delta=DeltaSchedule("geometric", rho=0.95),
                           max_iters=1)
        x0 = np.zeros(30)
        res = run_solver(oracle, cfg, x0)
        assert res.trace.records[0].cg_iters >= 1
        assert not np.array_equal(res.x, x0)


    def test_library_default_delta_is_geometric(self):
        # without an explicit delta, lsos_inexact must not run plain lsos
        assert SolverConfig(method="lsos_inexact").delta.kind == "geometric"
        assert SolverConfig(method="lsos_inexact").delta == \
            DeltaSchedule("geometric", rho=0.95)
        assert SolverConfig(method="lsos").delta == DeltaSchedule("zero")

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_constant_delta_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="constant delta"):
            DeltaSchedule("constant", value=value)


class TestPreconditionedNewtonSystems:
    def test_lsos_meets_the_residual_floor_at_kappa_1e6(self):
        # fig2-small's Householder shape at kappa = 1e6: plain CG stopped
        # at its 2n cap with residuals up to 2.4e-3; preconditioned by the
        # diagonal part, every Newton system meets the CG floor 1e-6
        _, oracle, x0 = _noisy_setup(2000, 1e6, 1e-3, seed=5,
                                     form=HESS_HOUSEHOLDER)
        res = run_solver(oracle, SolverConfig(method="lsos", max_iters=30), x0)
        assert len(res.trace) == 30
        for rec in res.trace.records:
            assert rec.cg_relres is not None and rec.cg_relres <= 1e-6


class TestHvpAccounting:
    def test_hvp_evals_count_every_matvec_of_the_sampled_hessian(self):
        # solve_cg applies B once per iteration, once per 50-iteration
        # residual refresh and once for its final certificate
        problem, _, x0 = _noisy_setup(300, 100.0, 0.1, seed=3,
                                      form=HESS_HOUSEHOLDER)
        for method in ("lsos", "lsos_inexact", "sos"):
            oracle = NoisyOracle(problem, RngStream(3, 0).child(1))
            res = run_solver(oracle, SolverConfig(method=method, max_iters=40),
                             x0)
            expected = sum(r.cg_iters + r.cg_iters // 50 + 1
                           for r in res.trace.records)
            assert res.eval_counts.hvp_evals == expected > 0
        # dense sampled Hessians are factorized, never applied
        _, oracle, x0 = _noisy_setup(30, 100.0, 0.1, seed=4)
        res = run_solver(oracle, SolverConfig(method="lsos", max_iters=20), x0)
        assert res.eval_counts.hvp_evals == 0


class TestDescentBound:
    def test_inexact_directions_satisfy_expected_descent(self, rng):
        # with residual <= mu/(2L) ||g||, directions obey
        # g.d <= -||g||^2 / (2L) on quadratics (exact oracle)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            mu, L = 1.0, float(rng.uniform(4.0, 40.0))
            h = random_spd(n, rng, mu, L)
            g = h @ rng.standard_normal(n)
            delta = mu / (2 * L)
            d = solve_cg(SpdOperator(n, dense=h), -g, rel_tol=delta).d
            assert float(g @ d) <= -float(g @ g) / (2 * L) * (1 - 1e-10)


class TestSgd:
    def test_first_step_has_unit_length(self):
        _, oracle, x0 = _noisy_setup(20, 100.0, 0.1, seed=8)
        res = run_solver(oracle, SolverConfig(method="sgd", max_iters=3), x0)
        first = res.trace.records[0]
        assert first.step_len * first.grad_norm_hat == pytest.approx(1.0,
                                                                     rel=1e-12)

    def test_fixed_step_descends_on_quadratic(self, rng):
        h = random_spd(6, rng, 1, 4)
        oracle = ExactQuadraticOracle(h, rng.standard_normal(6))
        cfg = SolverConfig(method="sgd", alpha0=0.2, T=1e12, max_iters=50)
        res = run_solver(oracle, cfg, rng.standard_normal(6), oracle.f_star)
        errs = [r.true_error for r in res.trace.records]
        assert errs[-1] < 1e-6 * errs[0]
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 1e-14]
        assert max(ratios) < 1.0  # classical linear convergence

    def test_line_search_variant_beats_plain_sgd(self):
        # mirrors the harness comparison at small scale: same x0 per seed
        per_seed = []
        for rep in range(8):
            problem, _, x0 = _noisy_setup(50, 100.0, 0.1, seed=300 + rep)
            finals = {}
            for method in ("sgd", "sgd_ls"):
                oracle = NoisyOracle(problem, RngStream(300 + rep, 1).child(2))
                res = run_solver(oracle,
                                 SolverConfig(method=method, max_iters=40), x0,
                                 problem.f_star)
                finals[method] = res.trace.records[-1].true_error
            per_seed.append(finals)
        mean_ls = np.mean([f["sgd_ls"] for f in per_seed])
        mean_plain = np.mean([f["sgd"] for f in per_seed])
        assert mean_ls <= mean_plain


class TestConfig:
    def test_method_picks_the_family_defaults(self):
        noisy = SolverConfig(method="lsos")
        fs = SolverConfig(method="lsos_fs", max_epochs=1)
        assert (noisy.ls.theta, noisy.max_iters) == (0.9, 100)
        assert (fs.ls.theta, fs.max_iters) == (0.999, None)
        assert SolverConfig(method="lsos_inexact").delta.kind == "geometric"
        assert SolverConfig().ls is not SolverConfig().ls

    @pytest.mark.parametrize("method, name, value", [
        ("saga_ls", "batch_scheme", "partition"),
        ("lsos", "cg_rel_floor", 1e-6), ("lsos_inexact", "cg_max_iters", 5)])
    def test_the_method_fixes_what_no_field_sets(self, method, name, value):
        with pytest.raises(TypeError, match=name):
            SolverConfig(method=method, **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("grad_tol", -1.0), ("grad_tol", math.nan), ("grad_tol", -math.inf),
        ("time_budget_s", 0.0), ("time_budget_s", -1.0),
        ("time_budget_s", math.nan)])
    def test_rejects_negative_tolerance_and_empty_time_budget(self, name,
                                                                value):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            SolverConfig(method="sgd", **{name: value})

    def test_replace_keeps_explicit_values(self):
        cfg = SolverConfig(method="saga_ls", max_epochs=1,
                           ls=LineSearchConfig(theta=0.5))
        assert replace(cfg, batch_size=3).ls.theta == 0.5

    def test_each_runner_takes_only_its_family(self, rng):
        oracle = ExactQuadraticOracle(random_spd(3, rng))
        with pytest.raises(ValueError, match="noisy-oracle"):
            run_solver(oracle, SolverConfig(method="saga_ls", max_epochs=1),
                       np.zeros(3))
        with pytest.raises(ValueError, match="finite-sum"):
            run_fs_solver(quadratic_sum_problem(4, 3), SolverConfig(),
                          np.zeros(3), rng)

    @pytest.mark.parametrize("method, name", [
        ("lsos_bfgs", "m"), ("lsos_bfgs", "l"), ("lsos", "max_iters"), ("saga_ls", "batch_size"),
        ("lsos_bfgs", "hess_batch_size")])
    def test_rejects_counts_below_one(self, method, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
            SolverConfig(method=method, max_epochs=1, **{name: 0})
        # a count must be integral: 2.5 would reach islice or range later
        for value in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
                SolverConfig(method=method, max_epochs=1, **{name: value})
        cfg = SolverConfig(method=method, max_epochs=1, **{name: np.int64(3)})
        assert getattr(cfg, name) == 3


class TestRobustness:
    def test_fallback_to_gradient_on_indefinite_hessian(self, rng):
        class IndefiniteOracle(ExactQuadraticOracle):
            def sample(self, x, **want):
                s = super().sample(x, **want)
                if s.hessian is not None:
                    bad = self.h.copy()
                    bad[0, 0] = -1.0
                    s = type(s)(value=s.value, gradient=s.gradient,
                                hessian=SpdOperator(self.n, dense=bad))
                return s

        oracle = IndefiniteOracle(random_spd(5, rng), rng.standard_normal(5))
        cfg = SolverConfig(method="lsos",
                           ls=LineSearchConfig(zeta_kind="zero"), max_iters=30,
                           grad_tol=1e-6)
        res = run_solver(oracle, cfg, rng.standard_normal(5), oracle.f_star)
        assert all(r.fallback for r in res.trace.records)
        assert res.trace.records[-1].true_error < res.trace.records[0].true_error

    def test_divergent_gain_run_is_flagged(self, rng):
        oracle = ExactQuadraticOracle(random_spd(4, rng), rng.standard_normal(4))
        cfg = SolverConfig(method="sos", alpha0=1e6, T=1e12, max_iters=100)
        res = run_solver(oracle, cfg, rng.standard_normal(4), oracle.f_star)
        assert res.stop_reason == "diverged"
        assert res.trace.records[-1].f_hat == math.inf
        assert res.trace.records[-1].true_error == math.inf

    def test_loop_norm_equals_numpy_norm_and_overflows_silently(self, rng):
        # the norms are written to the trace, so they must not move a bit
        for n in (1, 7, 300, 20001):
            for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
                v = scale * rng.standard_normal(n)
                assert solvers._norm(v) == float(np.linalg.norm(v))
        assert solvers._norm(np.full(4, 1e200)) == math.inf

    def test_time_budget_respected(self):
        _, oracle, x0 = _noisy_setup(150, 100.0, 0.5, seed=9)
        cfg = SolverConfig(method="lsos", max_iters=10**6, time_budget_s=0.05)
        res = run_solver(oracle, cfg, x0)
        assert res.stop_reason == "time_budget"
        assert res.iterations < 10**6

    def test_zero_gradient_stops(self, rng):
        oracle = ExactQuadraticOracle(random_spd(3, rng))
        res = run_solver(oracle, SolverConfig(method="sgd", max_iters=5),
                         np.zeros(3))
        assert res.stop_reason == "zero_direction"
        assert res.iterations == 0


class TestSolverClock:
    def test_time_covers_the_draw_of_each_iteration_item(self):
        # the loop's time column counts pulling each item from the source,
        # as a finite-sum run spends it drawing and slicing its batch
        pause = 0.004

        def slow_items():
            while True:
                time.sleep(pause)
                yield None

        cfg = SolverConfig(method="sgd_ls", max_iters=5,
                           ls=LineSearchConfig(t_start=0.5))
        res = solvers._lsos_loop(
            cfg, np.ones(3), slow_items(), estimate=lambda x, _: x,
            direction=None, objective=lambda x, _: 0.5 * float(x @ x),
            after_step=None, true_errors=None, counts=EvalCounts,
            since=EvalCounts())
        times = res.trace.column("wall_time_s")
        assert len(times) == 5
        for k, wall in enumerate(times):
            assert wall >= (k + 1) * pause

    @pytest.mark.parametrize("exit_at", ["gradient", "direction", "iterate"])
    def test_divergence_row_is_timed_with_its_iteration(self, exit_at):
        # each iteration's estimate sleeps; at k = 2 the run diverges at one
        # of the three exits, and its row must still count that sleep
        pause, k_div = 0.01, 2

        def estimate(x, _batch):
            time.sleep(pause)
            inf_g = exit_at == "gradient" and len(steps) == k_div
            return np.array([math.inf, 0.0, 0.0]) if inf_g else np.ones(3)

        def direction(x, _batch, g, k):
            d = -1e-150 * g  # a step of 1e50 per entry at alpha0 = 1e200
            if k == k_div and exit_at == "direction":
                d = np.array([math.inf, 0.0, 0.0])
            elif k == k_div and exit_at == "iterate":
                d = np.array([1e150, 0.0, 0.0])  # t * d overflows
            return d, None, None, False

        steps = []  # one per finished iteration, so len(steps) is k
        cfg = SolverConfig(method="sos", alpha0=1e200, max_iters=10)
        res = solvers._lsos_loop(
            cfg, np.ones(3), itertools.repeat(None), estimate=estimate,
            direction=direction, objective=lambda x, _: 0.0,
            after_step=lambda x, _: steps.append(x),
            true_errors=lambda xs: [0.0] * len(xs), counts=EvalCounts,
            since=EvalCounts())
        assert res.stop_reason == "diverged" and res.iterations == k_div
        *_, before, last = res.trace.records
        assert last.iter == k_div
        assert last.wall_time_s - before.wall_time_s >= pause
        assert last.f_hat == math.inf and last.true_error == math.inf
        assert (last.step_len > 0) == (exit_at == "iterate")

    @pytest.mark.parametrize("with_errors", [True, False])
    def test_true_errors_come_in_blocks_off_the_clock(self, with_errors):
        # a sleeping stub: its time must not reach the records
        pause, block, x0 = 0.02, 3, np.ones(3)
        steps, queried = [], []

        def true_errors(xs):
            time.sleep(pause)
            queried.append(list(xs))
            return [0.5 * float(x @ x) for x in xs]

        cfg = SolverConfig(method="sgd_ls", max_iters=8,
                           ls=LineSearchConfig(t_start=0.5))
        res = solvers._lsos_loop(
            cfg, x0, itertools.repeat(None), estimate=lambda x, _: x,
            direction=None, objective=lambda x, _: 0.5 * float(x @ x),
            after_step=lambda x, _: steps.append(x),
            true_errors=true_errors if with_errors else None,
            counts=EvalCounts, since=EvalCounts(), error_block=block)
        assert max(res.trace.column("wall_time_s")) < pause
        iterates = [x0] + steps[:-1]  # record k is taken at x_k
        errors = [0.5 * float(x @ x) for x in iterates]
        sizes = [3, 3, 2]
        if not with_errors:  # no query, and every error stays empty
            sizes, iterates, errors = [], [], [None] * 8
        assert [len(xs) for xs in queried] == sizes
        assert res.trace.column("true_error") == errors
        # the queue holds the iterates themselves, not copies
        queued = [x for xs in queried for x in xs]
        assert len(queued) == len(iterates)
        assert all(a is b for a, b in zip(queued, iterates))
