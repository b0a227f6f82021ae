"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import csv
import os
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from stochnewton.core import RngStream
from stochnewton.fs_solvers import run_fs_solver
from stochnewton.harness import ExperimentSpec, run_experiment
from stochnewton.linalg import SpdOperator, solve_cg, solve_direct
from stochnewton.logreg import LogRegModel, generate_synthetic_classification
from stochnewton.slbfgs import LbfgsMemory
from stochnewton.solvers import DeltaSchedule, SolverConfig, run_solver
from stochnewton.steplen import LineSearchConfig, backtrack
from stochnewton.synthetic import (HESS_HOUSEHOLDER, NoisyOracle,
                                   exact_solution, generate_problem)

from conftest import (fd_gradient_check, fd_hvp_check, full_gradient_exact,
                      materialize, random_spd, recompute_loss_sum,
                      verify_secant)


def _report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def logistic_2000():
    data = generate_synthetic_classification(2000, 50, 2.0,
                                             RngStream(513, 2**32))
    model = LogRegModel(data)  # mu = 1/N
    model.reference_optimum()
    return model


class TestCriterion01DeterministicNewton:
    def test_noise_free_lsos_is_fast_newton(self):
        problem = generate_problem(50, 100.0, 0.0, rng=RngStream(801, 2**32))
        x_star, _ = exact_solution(problem)
        oracle = NoisyOracle(problem, RngStream(801, 0).child(1))
        x0 = RngStream(801, 0).child(0).normal(0, 5, 50)
        cfg = SolverConfig(method="lsos",
                           ls=LineSearchConfig(switch_rule="step_only"),
                           max_iters=50, grad_tol=1e-8)
        tic = time.perf_counter()
        res = run_solver(oracle, cfg, x0)
        elapsed = time.perf_counter() - tic
        x_err = float(np.linalg.norm(res.x - x_star))
        ok = (res.stop_reason == "grad_tol" and res.iterations <= 50
              and res.final_grad_norm <= 1e-8 and x_err <= 1e-6
              and elapsed < 1.0)
        _report(1, "deterministic-newton-sanity", ok,
                f"iters={res.iterations} grad={res.final_grad_norm:.2e} "
                f"x_err={x_err:.2e} time={elapsed:.3f}s")


class TestCriterion02EstimatorUnbiasedness:
    def test_exhaustive_batch_average_equals_full_gradient(self):
        data = generate_synthetic_classification(6, 4, 1.0, RngStream(802, 0))
        model = LogRegModel(data, mu=0.2)
        rng = RngStream(803, 0)
        x = rng.standard_normal(4)
        full = full_gradient_exact(model, x)
        batches = [np.array(b) for b in combinations(range(6), 2)]

        sub_mean = np.mean([model.batch_gradient(b, x) for b in batches],
                           axis=0)
        table = model.saga_table(rng.standard_normal(4))  # a run's table
        for _ in range(3):  # age the table so the test is not vacuous
            table.update(rng.choice(6, size=2), rng.standard_normal(4))
        saga_mean = np.mean([table.estimate(x, b) for b in batches], axis=0)

        err_sub = float(np.max(np.abs(sub_mean - full)))
        err_saga = float(np.max(np.abs(saga_mean - full)))
        ok = err_sub <= 1e-12 and err_saga <= 1e-12
        _report(2, "estimator-unbiasedness-exhaustive", ok,
                f"subsampled={err_sub:.1e} saga={err_saga:.1e}")


class TestCriterion03SagaTableIntegrity:
    def test_running_sum_after_thousand_updates(self):
        data = generate_synthetic_classification(50, 6, 1.0, RngStream(804, 0))
        model = LogRegModel(data)
        rng = RngStream(805, 0)
        table = model.saga_table(rng.standard_normal(6))  # a run's table
        for _ in range(1000):
            batch = rng.choice(50, size=int(rng.integers(1, 9)))
            table.update(batch, rng.standard_normal(6))
        drift = float(np.max(np.abs(table.loss_sum - recompute_loss_sum(table))))
        _report(3, "saga-table-integrity", drift <= 1e-10, f"drift={drift:.2e}")


class TestCriterion04LbfgsCorrectness:
    def test_dense_equivalence_secant_and_positivity(self):
        rng = RngStream(806, 0)
        h = random_spd(20, rng, 1, 25)
        mem = LbfgsMemory(m=10)
        for _ in range(10):
            s = rng.standard_normal(20)
            mem.insert_pair(s, h @ s)
        dense = materialize(mem, 20)
        max_dev = max(
            float(np.max(np.abs(mem.apply_inverse_hessian(v) - dense @ v)))
            for v in (rng.standard_normal(20) for _ in range(25)))
        secant = verify_secant(mem, tol=1e-8)
        positive = all(float(v @ mem.apply_inverse_hessian(v)) > 0
                       for v in (rng.standard_normal(20) for _ in range(100)))
        ok = max_dev <= 1e-10 and secant and positive
        _report(4, "lbfgs-correctness", ok,
                f"dense_dev={max_dev:.2e} secant={secant} spd_probes={positive}")


class TestCriterion05CgContract:
    def test_certificates_and_direct_agreement(self):
        problem = generate_problem(300, 100.0, 0.01,
                                   hess_form=HESS_HOUSEHOLDER,
                                   rng=RngStream(807, 2**32))
        exact_solution(problem)
        oracle = NoisyOracle(problem, RngStream(807, 0).child(1))
        x0 = RngStream(807, 0).child(0).normal(0, 5, 300)
        cfg = SolverConfig(method="lsos_inexact",
                           delta=DeltaSchedule("geometric", rho=0.95),
                           max_iters=80)
        res = run_solver(oracle, cfg, x0)
        certified = [r for r in res.trace.records if r.cg_relres is not None]
        bound_ok = all(r.cg_relres <= max(0.95 ** r.iter, 1e-6) + 1e-15
                       for r in certified)
        every_iteration = len(certified) == len(res.trace)

        rng = RngStream(808, 0)
        b = random_spd(100, rng, 1, 100)
        rhs = rng.standard_normal(100)
        op = SpdOperator(100, dense=b)
        gap = float(np.linalg.norm(solve_cg(op, rhs, 1e-10).d
                                   - solve_direct(b, rhs)))
        agree = gap / float(np.linalg.norm(solve_direct(b, rhs))) <= 1e-6
        ok = bound_ok and every_iteration and agree
        _report(5, "cg-residual-contract", ok,
                f"certified={len(certified)} bound_ok={bound_ok} "
                f"direct_gap={gap:.2e}")


class TestCriterion06StepLengthLowerBound:
    def test_ten_thousand_randomized_instances(self):
        rng = RngStream(809, 0)
        violations = 0
        for _ in range(10**4):
            n = int(rng.integers(2, 7))
            mu, L = 1.0, float(rng.uniform(2.0, 50.0))
            h = random_spd(n, rng, mu, L)
            x = rng.standard_normal(n) * float(rng.uniform(0.5, 4.0))
            g = h @ x
            d = -np.linalg.solve(h, g)
            t_start = float(rng.uniform(0.25, 4.0))
            eta = float(rng.uniform(1e-5, 0.49))
            cfg = LineSearchConfig(eta=eta, beta=0.5, zeta_kind="zero",
                                   t_start=t_start)
            f = lambda t: 0.5 * float((x + t * d) @ h @ (x + t * d))
            res = backtrack(f, f(0.0), float(g @ d), cfg, 0.0)
            bound = min(t_start, 0.5 * (1.0 - eta) * mu**2 / L**2)
            if res.accepted and res.t < bound * (1 - 1e-12):
                violations += 1
        _report(6, "step-length-lower-bound", violations == 0,
                f"violations={violations}/10000")


class TestCriterion07QLinearTrend(object):
    def test_log_error_regression_is_linearly_decreasing(self, logistic_2000):
        # exact subsampled Newton directions (zero residual) satisfy the
        # forcing-term budget delta_k = mu/(2L); zeta_k = 0 is the monotone
        # Armijo search; the small trial step keeps the geometric regime
        # spanning the whole regression window
        model0 = logistic_2000
        f_star = model0.f_star
        tic = time.perf_counter()
        curves = []
        for rep in range(20):
            model = LogRegModel(model0.dataset)
            cfg = SolverConfig(
                method="lsos_fs", batch_size=200, max_iters=300,
                max_epochs=None,
                ls=LineSearchConfig(zeta_kind="zero", t_start=0.01))
            res = run_fs_solver(model, cfg, np.zeros(50),
                                RngStream(810, rep).child(1), f_star=f_star)
            curves.append(res.trace.column("true_error"))
        elapsed = time.perf_counter() - tic
        mean_log = np.mean(np.log(np.maximum(np.asarray(curves), 1e-300)),
                           axis=0)
        ks = np.arange(50, 300)
        y = mean_log[50:300]
        a = np.vstack([ks, np.ones_like(ks)]).T
        coef, res_ss = np.linalg.lstsq(a, y, rcond=None)[:2]
        slope = float(coef[0])
        r2 = float(1.0 - res_ss[0] / np.sum((y - y.mean()) ** 2))
        ok = slope < 0 and r2 >= 0.9 and elapsed < 60.0
        _report(7, "q-linear-trend", ok,
                f"slope={slope:.2e} R2={r2:.3f} time={elapsed:.1f}s")


class TestCriterion08LineSearchBeatsGainSequences:
    def test_mean_final_error_ordering(self):
        tic = time.perf_counter()
        finals = {}
        for kappa in (100.0, 1000.0):
            spec = ExperimentSpec.from_mapping({
                "problem.kind": "synthetic", "problem.n": "200",
                "problem.kappa": repr(kappa), "problem.sigma_pct": "0.1",
                "run.solvers": "lsos,sos,sgd", "run.max_iters": "50",
                "run.reps": "20", "run.seed": "811",
            })
            res = run_experiment(spec)
            finals[kappa] = {
                name: float(res.aggregates[(name, "iter")].mean_error[-1])
                for name in ("lsos", "sos", "sgd")}
        elapsed = time.perf_counter() - tic
        ok = elapsed < 120.0
        for kappa, f in finals.items():
            ok = ok and f["lsos"] <= f["sos"] and f["lsos"] <= f["sgd"]
        _report(8, "line-search-beats-gain-sequences", ok,
                f"finals={finals} time={elapsed:.1f}s")


class TestCriterion09InexactNewtonSavesCg:
    def test_cg_cost_to_common_error_target(self):
        spec = ExperimentSpec.from_mapping({
            "problem.kind": "synthetic", "problem.n": "2000",
            "problem.kappa": "100.0", "problem.sigma": "0.001",
            "problem.hess_form": "householder",
            "run.solvers": "lsos,lsos_inexact", "run.max_iters": "150",
            "run.reps": "20", "run.seed": "812",
            "run.workers": str(min(2, os.cpu_count() or 1)),
        })
        res = run_experiment(spec)

        def cg_cost(trace, target=1e-2):
            total = 0
            for r in trace.records:
                total += r.cg_iters or 0
                if r.true_error is not None and r.true_error <= target:
                    return total
            return None

        costs = {}
        all_reached = True
        for name in ("lsos", "lsos_inexact"):
            per_run = [cg_cost(t) for t in res.traces[name]]
            all_reached &= all(c is not None for c in per_run)
            costs[name] = float(np.mean([c for c in per_run if c is not None]))
        ratio = costs["lsos_inexact"] / costs["lsos"]
        ok = all_reached and ratio <= 0.7
        _report(9, "inexact-newton-saves-cg", ok,
                f"mean_cg={costs} ratio={ratio:.3f} all_reached={all_reached}")


class TestCriterion10QuasiNewtonBeatsSagaBaseline:
    def test_fig3_protocol_with_grid_search(self):
        spec = ExperimentSpec.from_preset("fig3-synthetic").override(
            **{"run.seed": "813"})
        res = run_experiment(spec)
        final = {name: float(res.aggregates[(name, "iter")].mean_error[-1])
                 for name in ("lsos_bfgs", "saga_ls")}
        ok = final["lsos_bfgs"] < final["saga_ls"]
        _report(10, "lbfgs-beats-saga-baseline", ok, f"finals={final}")


class TestCriterion11ManifestDeterminism:
    def test_rerun_from_manifest_reproduces_iterate_columns(self, tmp_path):
        def iterate_columns(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            return [[c for i, c in enumerate(r) if i != 2] for r in rows]

        ok = True
        specs = [
            ExperimentSpec.from_mapping({
                "problem.kind": "synthetic", "problem.n": "30",
                "problem.kappa": "50.0", "problem.sigma_pct": "0.5",
                "run.solvers": "lsos,sgd", "run.max_iters": "25",
                "run.reps": "3", "run.seed": "814",
            }),
            ExperimentSpec.from_mapping({
                "problem.kind": "logistic_synthetic", "problem.N": "200",
                "problem.features": "8", "run.solvers": "lsos_bfgs",
                "run.max_epochs": "3", "run.reps": "2", "run.seed": "815",
            }),
        ]
        for i, spec in enumerate(specs):
            d1 = tmp_path / f"first{i}"
            d2 = tmp_path / f"second{i}"
            run_experiment(spec, out_dir=d1)
            run_experiment(ExperimentSpec.from_file(d1 / "manifest.txt"),
                           out_dir=d2)
            for f in sorted(Path(d1).glob("*_rep*.csv")):
                ok &= iterate_columns(f) == iterate_columns(d2 / f.name)
        _report(11, "manifest-determinism", ok)


class TestCriterion12DerivativeChecks:
    def test_all_problem_classes_pass_finite_differences(self):
        rng = RngStream(816, 0)
        worst = 0.0

        dense = generate_problem(15, 100.0, 0.0, rng=RngStream(817, 0))
        factored = generate_problem(15, 100.0, 0.0,
                                    hess_form=HESS_HOUSEHOLDER,
                                    rng=RngStream(818, 0))
        for p in (dense, factored):
            def hvp(z, w, p=p):
                return p.hess_diag_part(z) * w + 2.0 * p.quad_apply(w)
            for _ in range(100):
                x = rng.standard_normal(15)
                v = rng.standard_normal(15)
                worst = max(worst,
                            fd_gradient_check(p.value, p.gradient, x, 1e-6),
                            fd_hvp_check(p.gradient, hvp, x, v, 1e-6))

        data = generate_synthetic_classification(40, 8, 1.0, RngStream(819, 0))
        model = LogRegModel(data, mu=0.05)
        all_idx = np.arange(model.N)
        for _ in range(100):
            x = rng.standard_normal(8)
            v = rng.standard_normal(8)
            i = int(rng.integers(0, model.N))
            worst = max(
                worst,
                fd_gradient_check(lambda z: model.batch_value([i], z),
                                  lambda z: model.batch_gradient([i], z),
                                  x, 1e-6),
                fd_gradient_check(lambda z: model.batch_value(all_idx, z),
                                  lambda z: model.batch_gradient(all_idx, z),
                                  x, 1e-6),
                fd_hvp_check(lambda z: model.batch_gradient(all_idx, z),
                             lambda z, w: model.batch_hvp(all_idx, z, w),
                             x, v, 1e-6))
        _report(12, "derivative-checks", worst <= 1e-4, f"max_err={worst:.2e}")
