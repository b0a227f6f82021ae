"""Gain schedules, nonmonotone backtracking and the deactivation test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochnewton.core import RngStream
from stochnewton.steplen import (GainSchedule, LineSearchConfig, backtrack,
                                 switch_check)

from conftest import random_spd


class TestGainSchedule:
    def test_t_damped_at_zero(self):
        s = GainSchedule(alpha0=0.5, T=1e6)
        assert s.next_gain() == 0.5

    def test_t_damped_halves_at_k_equals_T(self):
        s = GainSchedule(alpha0=0.5, T=1e6)
        assert s.peek(10**6) == 0.25

    def test_t_damped_identity_surrogate(self):
        # alpha_k * (T + k) / T recovers alpha0 for every k
        s = GainSchedule(alpha0=0.37, T=1e6)
        for k in (0, 1, 17, 10**5, 10**7):
            assert s.peek(k) * (1e6 + k) / 1e6 == pytest.approx(0.37, rel=1e-14)

    def test_anchored_starts_at_anchor_value(self):
        # the solvers start a fresh schedule at the switch iteration k_tau;
        # its gains are the anchored alpha_ktau * T / (T + k - k_tau)
        k_tau, anchor, T = 37, 1e-3 / 0.42, 1e6
        s = GainSchedule(alpha0=anchor, T=T)
        assert s.peek(37 - k_tau) == anchor
        assert s.peek(37 + 10**6 - k_tau) == pytest.approx(0.5 * anchor)
        for k in range(k_tau, k_tau + 100_000):
            assert s.next_gain() == anchor * T / (T + (k - k_tau))

    def test_counter_advances(self):
        s = GainSchedule(alpha0=1.0, T=10.0)
        assert [s.next_gain() for _ in range(3)] == [1.0, 10 / 11, 10 / 12]

    def test_validation(self):
        with pytest.raises(ValueError):
            GainSchedule(alpha0=0.0)
        with pytest.raises(ValueError):
            GainSchedule(alpha0=1.0, T=0.0)


class TestLineSearchConfig:
    def test_geometric_zeta_closed_form(self):
        cfg = LineSearchConfig(theta=0.9)
        partial = sum(cfg.zeta(k) for k in range(2000))
        assert partial == pytest.approx(1.0 / (1.0 - 0.9), rel=1e-12)

    def test_zero_zeta(self):
        cfg = LineSearchConfig(zeta_kind="zero")
        assert cfg.zeta(0) == 0.0 and cfg.zeta(5) == 0.0

    @pytest.mark.parametrize("bad", [
        dict(eta=0.0), dict(eta=1.0), dict(beta=0.0), dict(beta=1.0),
        dict(theta=1.0), dict(t_start=0.0), dict(t_min=-1.0),
        dict(max_backtracks=0), dict(switch_rule="sometimes"),
        dict(zeta_kind="linear"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            LineSearchConfig(**bad)


class TestBacktrack:
    def test_descent_accepts_first_trial(self):
        cfg = LineSearchConfig(eta=1e-4, zeta_kind="zero", t_start=1.0)
        res = backtrack(lambda t: 10.0 - t, 10.0, -1.0, cfg, 0.0)
        assert res.accepted and res.t == 1.0 and res.n_trials == 1

    def test_ascent_accepted_through_nonmonotone_slack(self):
        cfg = LineSearchConfig(eta=1e-4, zeta_kind="zero", t_start=1.0)
        res = backtrack(lambda t: 10.0 + t, 10.0, -1.0, cfg, zeta_k=1.0 + 1e-3)
        assert res.accepted and res.t == 1.0

    def test_quadratic_hand_example(self):
        # f(t) = (t-1)^2/2, f0 = 1/2, slope = -1, eta = 1/2:
        # f(1) = 0 <= 1/2 - 0.5*1*1 = 0 holds with equality at t = 1
        cfg = LineSearchConfig(eta=0.5, beta=0.5, zeta_kind="zero", t_start=1.0)
        res = backtrack(lambda t: 0.5 * (t - 1.0) ** 2, 0.5, -1.0, cfg, 0.0)
        assert res.accepted and res.t == 1.0

    def test_non_finite_triggers_backtracking(self):
        cfg = LineSearchConfig(eta=1e-4, beta=0.5, zeta_kind="zero", t_start=1.0)
        f = lambda t: math.inf if t > 0.6 else 10.0 - t
        res = backtrack(f, 10.0, -1.0, cfg, 0.0)
        assert res.accepted and res.t == 0.5 and res.n_trials == 2

    def test_exhaustion_returns_smallest_trial(self):
        cfg = LineSearchConfig(eta=1e-4, beta=0.5, zeta_kind="zero",
                               t_start=1.0, max_backtracks=10)
        res = backtrack(lambda t: 11.0, 10.0, -1.0, cfg, 0.0)
        assert not res.accepted
        assert res.t == pytest.approx(0.5 ** 10)
        assert res.n_trials == 11

    def test_negative_zeta_rejected(self):
        cfg = LineSearchConfig()
        with pytest.raises(ValueError):
            backtrack(lambda t: 0.0, 0.0, -1.0, cfg, zeta_k=-0.1)

    @given(slope_scale=st.floats(0.1, 10), t_start=st.floats(0.1, 8),
           eta=st.floats(1e-6, 0.45))
    @settings(max_examples=80, deadline=None)
    def test_acceptance_soundness_and_minimality(self, slope_scale, t_start, eta):
        # memoized 1-D convex oracle: re-evaluating the accepted trial
        # reproduces the decision, and the previous trial must have failed
        cfg = LineSearchConfig(eta=eta, beta=0.5, zeta_kind="zero",
                               t_start=t_start, max_backtracks=60)
        calls = {}

        def f(t):
            if t not in calls:
                calls[t] = 0.5 * slope_scale * (t - 1.0) ** 2
            return calls[t]

        f0 = 0.5 * slope_scale
        slope = -slope_scale
        res = backtrack(f, f0, slope, cfg, 0.0)
        assert res.accepted
        assert f(res.t) <= f0 + cfg.eta * res.t * slope
        if res.n_trials > 1:
            prev = res.t / cfg.beta
            assert f(prev) > f0 + cfg.eta * prev * slope


class TestStepLowerBound:
    """On quadratics with Newton-type directions, accepted steps obey
    t >= min(t_start, beta (1 - eta) mu^2 / (L^2 (1 + delta_max)^2))."""

    def _run_instances(self, n_instances, delta_max, seed):
        rng = RngStream(seed, 0)
        violations = 0
        for _ in range(n_instances):
            n = int(rng.integers(2, 7))
            mu, L = 1.0, float(rng.uniform(2.0, 60.0))
            h = random_spd(n, rng, mu, L)
            x = rng.standard_normal(n) * float(rng.uniform(0.5, 5.0))
            g = h @ x
            d = -np.linalg.solve(h, g)
            if delta_max > 0.0:
                # perturb within the residual budget ||H d + g|| <= delta ||g||
                noise = rng.standard_normal(n)
                noise *= delta_max * np.linalg.norm(g) / np.linalg.norm(h @ noise)
                d = d + np.linalg.solve(h, noise * float(rng.uniform(0, 1)))
            t_start = float(rng.uniform(0.25, 4.0))
            eta = float(rng.uniform(1e-5, 0.49))
            cfg = LineSearchConfig(eta=eta, beta=0.5, zeta_kind="zero",
                                   t_start=t_start)
            f = lambda t, x=x, d=d, h=h: 0.5 * float((x + t * d) @ h @ (x + t * d))
            res = backtrack(f, f(0.0), float(g @ d), cfg, 0.0)
            bound = min(t_start, 0.5 * (1 - eta) * mu**2 /
                        (L**2 * (1 + delta_max) ** 2))
            if res.accepted and res.t < bound * (1 - 1e-12):
                violations += 1
        return violations

    def test_exact_newton_directions(self):
        assert self._run_instances(2000, 0.0, seed=21) == 0

    def test_inexact_directions_within_forcing_budget(self):
        # delta_max = mu/(2L) with L >= 2 -> use the worst case 0.25
        assert self._run_instances(1000, 0.25, seed=22) == 0


class TestSwitchCheck:
    def test_step_only_boundary_is_strict(self):
        cfg = LineSearchConfig(switch_rule="step_only", t_min=1e-3)
        assert not switch_check(1e-3, 5.0, cfg)
        assert switch_check(0.999e-3, 5.0, cfg)

    def test_step_norm_rule(self):
        cfg = LineSearchConfig(switch_rule="step_norm", t_min=1e-3)
        assert switch_check(1e-2, 1e-2, cfg)          # 1e-4 < 1e-3
        assert not switch_check(1.0, 1.0, cfg)

    def test_rejects_negative_inputs(self):
        cfg = LineSearchConfig()
        with pytest.raises(ValueError):
            switch_check(-1.0, 1.0, cfg)
