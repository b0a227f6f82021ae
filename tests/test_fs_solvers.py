"""Finite-sum drivers: subsampled-Newton, SAGA + L-BFGS, and the SAGA baseline."""

import numpy as np
import pytest
import scipy.sparse as sp

from stochnewton import solvers
from stochnewton.core import EvalCounts, PHASE_LINE_SEARCH, RngStream
from stochnewton.fs_solvers import _epoch_batches, _error_block, run_fs_solver
from stochnewton.logreg import (Dataset, LogRegModel, LogRegSagaTable,
                                generate_synthetic_classification)
from stochnewton.solvers import DeltaSchedule, SolverConfig
from stochnewton.steplen import BacktrackResult, LineSearchConfig, backtrack

from conftest import quadratic_sum_problem


def _logistic(N=400, n=10, seed=50, feature_condition=1.0):
    data = generate_synthetic_classification(N, n, 2.0, RngStream(seed, 2**32),
                                             feature_condition=feature_condition)
    model = LogRegModel(data)
    model.reference_optimum()
    return model


class TestDeterministicReduction:
    def test_full_batch_matches_reference_lbfgs_with_armijo(self):
        # n_b = 1, zeta = 0, exact full batches: the driver must reproduce a
        # clean-room deterministic L-BFGS (dense update recursion) exactly
        N, n, m, l = 4, 6, 3, 2
        prob = quadratic_sum_problem(N, n, seed=60)
        x0 = RngStream(61, 0).standard_normal(n)
        K = 14
        cfg = SolverConfig(
            method="lsos_bfgs", batch_size=N, hess_batch_size=N,
            m=m, l=l, max_iters=K, max_epochs=None,
            ls=LineSearchConfig(zeta_kind="zero", t_start=1.0))
        res = run_fs_solver(prob, cfg, x0, RngStream(62, 0))

        # reference: explicit BFGS product updates, same averaging windows
        mean_h = np.mean(prob.hessians, axis=0)
        mean_b = np.mean(prob.rhs, axis=0)
        full_f = lambda x: float(0.5 * x @ mean_h @ x - mean_b @ x)
        full_g = lambda x: mean_h @ x - mean_b

        pairs, window, w_prev = [], [], None
        x = x0.copy()
        f_ref = []
        for _ in range(K):
            g = full_g(x)
            if pairs:
                s_m, y_m = pairs[-1]
                hmat = (s_m @ y_m / (y_m @ y_m)) * np.eye(n)
                for s, y in pairs:
                    rho = 1.0 / (s @ y)
                    v = np.eye(n) - rho * np.outer(y, s)
                    hmat = v.T @ hmat @ v + rho * np.outer(s, s)
                d = -hmat @ g
            else:
                d = -g
            f0 = full_f(x)
            f_ref.append(f0)
            t = 1.0
            while full_f(x + t * d) > f0 + 1e-4 * t * float(g @ d):
                t *= 0.5
            x = x + t * d
            window.append(x.copy())
            if len(window) == l:
                w = np.mean(window, axis=0)
                window.clear()
                if w_prev is not None:
                    s = w - w_prev
                    y = mean_h @ s
                    if s @ y > 0 and s @ y >= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                        pairs.append((s, y))
                        if len(pairs) > m:
                            pairs.pop(0)
                w_prev = w

        got_f = res.trace.column("f_hat")
        assert len(got_f) == K
        for a, b in zip(got_f, f_ref):
            assert a == pytest.approx(b, abs=1e-8, rel=1e-8)
        assert np.linalg.norm(res.x - x) <= 1e-8 * max(1.0, np.linalg.norm(x))


class TestLsosBfgs:
    def test_error_decreases_over_epochs(self):
        # 8 seeds with a grid-plausible trial step; the mean full objective
        # error must drop across epoch boundaries 1 -> 3 -> 6
        model = _logistic()
        f_star = model.f_star
        n_b = int(np.ceil(model.N / int(np.ceil(np.sqrt(model.N)))))
        at_epoch = {1: [], 3: [], 6: []}
        for rep in range(8):
            m = LogRegModel(model.dataset)
            cfg = SolverConfig(method="lsos_bfgs", max_epochs=6,
                               ls=LineSearchConfig(theta=0.999, t_start=0.1))
            res = run_fs_solver(m, cfg, np.zeros(model.n),
                                RngStream(70, rep).child(1), f_star=f_star)
            errs = res.trace.column("true_error")
            for ep in at_epoch:
                at_epoch[ep].append(errs[ep * n_b - 1])
        m1, m3, m6 = (np.mean(at_epoch[ep]) for ep in (1, 3, 6))
        assert m6 < m3 < m1

    def test_gradient_evaluation_accounting(self):
        # SAGA cost: one full pass at init, then 2|batch| per iteration;
        # the L-BFGS pair harvest adds |T_j| Hessian actions, not gradients
        prob = quadratic_sum_problem(30, 4, seed=71)
        bs = 6
        cfg = SolverConfig(method="lsos_bfgs", batch_size=bs,
                           hess_batch_size=10, max_iters=20, max_epochs=None)
        run_fs_solver(prob, cfg, np.zeros(4), RngStream(72, 0))
        assert prob.grad_evals == 30 + 2 * bs * 20
        assert prob.hvp_evals > 0

    def test_warmup_uses_gradient_direction(self):
        # before the first pair exists (2l records) iterates move along -g
        prob = quadratic_sum_problem(8, 5, seed=73)
        cfg = SolverConfig(method="lsos_bfgs", batch_size=8, l=3, m=2,
                           max_iters=4, max_epochs=None,
                           ls=LineSearchConfig(zeta_kind="zero"))
        res = run_fs_solver(prob, cfg, np.zeros(5), RngStream(74, 0))
        # full-batch SAGA estimate equals the full gradient; check the first
        # update is collinear with it
        g0 = prob.full_gradient_exact(np.zeros(5))
        first_step = res.trace.records[0]
        assert first_step.grad_norm_hat == pytest.approx(np.linalg.norm(g0))


class TestLsosFs:
    def test_inexact_directions_carry_certificates(self):
        model = _logistic(seed=51)
        cfg = SolverConfig(method="lsos_fs", batch_size=40,
                           delta=DeltaSchedule("geometric", rho=0.9),
                           max_iters=30, max_epochs=None,
                           ls=LineSearchConfig(zeta_kind="zero", t_start=0.5))
        res = run_fs_solver(model, cfg, np.zeros(model.n), RngStream(52, 0),
                            f_star=model.f_star)
        for rec in res.trace.records:
            assert rec.cg_relres is not None
            assert rec.cg_relres <= max(0.9 ** rec.iter, 1e-6) + 1e-15

    def test_exact_directions_descend(self):
        # subsampled Newton drops to its mini-batch noise floor quickly;
        # assert a solid decrease, not the floor's exact level
        model = _logistic(seed=53)
        cfg = SolverConfig(method="lsos_fs", batch_size=40,
                           max_iters=80, max_epochs=None,
                           ls=LineSearchConfig(zeta_kind="zero", t_start=0.5))
        res = run_fs_solver(model, cfg, np.zeros(model.n), RngStream(54, 0),
                            f_star=model.f_star)
        errs = res.trace.column("true_error")
        assert errs[-1] < 0.25 * errs[0]
        assert min(errs) < 0.15 * errs[0]


class TestSagaLs:
    def test_converges_on_logistic(self):
        model = _logistic(seed=55)
        cfg = SolverConfig(method="saga_ls", max_epochs=8)
        res = run_fs_solver(model, cfg, np.zeros(model.n), RngStream(56, 0),
                            f_star=model.f_star)
        errs = res.trace.column("true_error")
        assert errs[-1] < 1e-3 * errs[0]

    def test_loss_split_storage_converges_like_dense(self):
        model_a = _logistic(seed=57)
        model_b = LogRegModel(model_a.dataset)
        out = {}
        for storage, model in (("dense", model_a), ("loss_split", model_b)):
            cfg = SolverConfig(method="saga_ls", max_epochs=6,
                               saga_storage=storage)
            res = run_fs_solver(model, cfg, np.zeros(model.n),
                                RngStream(58, 0).child(1),
                                f_star=model_a.f_star)
            out[storage] = res.trace.records[-1].true_error
        assert out["loss_split"] < 10 * out["dense"] + 1e-9
        assert out["dense"] < 10 * out["loss_split"] + 1e-9

    def test_eval_counts_are_per_run(self):
        # the counters live on the shared problem; each result reports only
        # its own run, the SAGA table's initial pass included
        model = _logistic(N=100, n=4, seed=59)
        bs = 10
        cfg = SolverConfig(method="saga_ls", batch_size=bs, max_epochs=2)
        counts = [run_fs_solver(model, cfg, np.zeros(model.n),
                                RngStream(60, 0)).eval_counts
                  for _ in range(3)]
        assert isinstance(counts[0], EvalCounts)
        assert counts[0] == counts[1] == counts[2]
        iters = 2 * model.N // bs
        assert counts[0].g_evals == model.N + 2 * bs * iters
        # f0 and at least one trial per iteration
        assert counts[0].f_evals >= 2 * bs * iters
        assert counts[0].hvp_evals == 0

    def test_exhausted_search_keeps_searching_and_warns_once(self, monkeypatch,
                                                             caplog):
        # every search reports exhaustion: the finite-sum family takes the
        # smallest trial step and never switches to a gain sequence
        def exhausted(*args, **kwargs):
            res = backtrack(*args, **kwargs)
            return BacktrackResult(res.t, False, res.n_trials)

        monkeypatch.setattr(solvers, "backtrack", exhausted)
        prob = quadratic_sum_problem(10, 3, seed=64)
        cfg = SolverConfig(method="saga_ls", batch_size=2, max_iters=6,
                           max_epochs=None)
        with caplog.at_level("WARNING"):
            res = run_fs_solver(prob, cfg, np.zeros(3), RngStream(65, 0))
        assert res.iterations == 6 and res.k_tau is None
        assert set(res.trace.column("phase")) == {PHASE_LINE_SEARCH}
        assert sum("exhausted" in r.getMessage() for r in caplog.records) == 1

    def test_loss_split_requires_logistic(self):
        prob = quadratic_sum_problem(6, 3, seed=59)
        cfg = SolverConfig(method="saga_ls", max_epochs=1,
                           saga_storage="loss_split")
        with pytest.raises(ValueError):
            run_fs_solver(prob, cfg, np.zeros(3), RngStream(0, 0))


class TestOneSlicePerIteration:
    """Every call of an iteration reads one batch view sliced from the store."""

    @staticmethod
    def _csr_model():
        rng = np.random.default_rng(91)
        features = sp.random(300, 30, density=0.1, format="csr",
                             random_state=rng, data_rvs=rng.standard_normal)
        labels = np.where(rng.uniform(size=300) < 0.5, -1.0, 1.0)
        model = LogRegModel(Dataset(features, labels))
        assert model.store is model.dataset.features
        return model

    @staticmethod
    def _count_slices(model):
        slices = []

        class CountingCsr(sp.csr_matrix):
            def __getitem__(self, key):
                out = sp.csr_matrix.__getitem__(self, key)
                out.__class__ = sp.csr_matrix
                slices.append(out.shape[0])
                return out

        model.store.__class__ = CountingCsr
        return slices

    @pytest.mark.parametrize("cfg", [
        SolverConfig(method="saga_ls", saga_storage="loss_split",
                     max_epochs=2),
        SolverConfig(method="lsos_fs", batch_size=100, max_epochs=2),
    ], ids=["saga_ls-loss_split", "lsos_fs"])
    def test_store_is_sliced_once_per_iteration(self, cfg):
        model = self._csr_model()
        slices = self._count_slices(model)
        res = run_fs_solver(model, cfg, np.zeros(model.n), RngStream(92, 0))
        assert res.iterations > 0 and res.stop_reason == "max_epochs"
        assert len(slices) == res.iterations


class TestTrueErrorBlocks:
    def test_every_record_holds_the_exact_error_of_its_iterate(self,
                                                               monkeypatch):
        model = TestOneSlicePerIteration._csr_model()
        _, f_star = model.reference_optimum()
        iterates = [np.zeros(model.n)]
        update = LogRegSagaTable.update

        def capture(table, batch, x_next):  # the run's after_step
            iterates.append(x_next.copy())
            update(table, batch, x_next)

        monkeypatch.setattr(LogRegSagaTable, "update", capture)
        cfg = SolverConfig(method="saga_ls", saga_storage="loss_split",
                           max_epochs=2)
        res = run_fs_solver(model, cfg, iterates[0], RngStream(93, 0),
                            f_star=f_star)
        block = _error_block(model.N)
        assert block == 8 and res.iterations % block != 0  # a partial block
        assert res.trace.column("true_error") == [
            model.objective(x) - f_star for x in iterates[:res.iterations]]

    def test_block_size_bounds_the_buffer(self):
        assert [_error_block(N) for N in (1, 2000, 20000, 65536, 65537)] \
            == [8, 8, 6, 2, 1]


class TestBudgetsAndValidation:
    def test_max_iters_budget(self):
        # (N, batch_size, max_iters); 16 / 4 = 4 batches per epoch, so the
        # second case ends exactly on an epoch boundary
        for N, bs, max_iters in ((10, 2, 7), (16, 4, 8)):
            prob = quadratic_sum_problem(N, 3, seed=80)
            cfg = SolverConfig(method="saga_ls", batch_size=bs,
                               max_iters=max_iters, max_epochs=None)
            res = run_fs_solver(prob, cfg, np.zeros(3), RngStream(81, 0))
            assert res.iterations == max_iters and res.stop_reason == "max_iters"

    def test_max_epochs_budget(self):
        prob = quadratic_sum_problem(10, 3, seed=82)
        cfg = SolverConfig(method="saga_ls", batch_size=5, max_epochs=3)
        res = run_fs_solver(prob, cfg, np.zeros(3), RngStream(83, 0))
        assert res.iterations == 6  # two batches per epoch, three epochs
        assert res.stop_reason == "max_epochs"

    def test_time_budget(self):
        model = _logistic(seed=84)
        cfg = SolverConfig(method="saga_ls", max_epochs=10**6,
                           time_budget_s=0.05)
        res = run_fs_solver(model, cfg, np.zeros(model.n), RngStream(85, 0))
        assert res.stop_reason == "time_budget"

    def test_grad_tol_stop(self):
        prob = quadratic_sum_problem(6, 3, seed=86)
        cfg = SolverConfig(method="saga_ls", batch_size=6, max_epochs=500,
                           grad_tol=1e-6,
                           ls=LineSearchConfig(zeta_kind="zero"))
        res = run_fs_solver(prob, cfg, np.zeros(3), RngStream(87, 0))
        assert res.stop_reason == "grad_tol"
        assert res.final_grad_norm <= 1e-6

    def test_requires_some_budget(self):
        with pytest.raises(ValueError):
            SolverConfig(method="saga_ls", max_epochs=None, max_iters=None)

    @pytest.mark.parametrize("name, value", [
        ("max_iters", -1), ("max_iters", 0), ("max_epochs", 0),
        ("max_epochs", -2), ("batch_size", 0), ("hess_batch_size", 0)])
    def test_rejects_empty_budgets_and_batches(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
            SolverConfig(method="saga_ls", **{"max_epochs": 1, name: value})

    def test_uniform_batches_never_repeat_a_component(self):
        cfg = SolverConfig(method="lsos_fs", batch_size=20, max_epochs=5)
        batches = list(_epoch_batches(50, 20, cfg, RngStream(67, 0)))
        assert len(batches) == 5 * 3
        for batch in batches:
            assert np.unique(batch).size == 20

    def test_reproducible_given_stream(self):
        model = _logistic(seed=89)
        cfg = SolverConfig(method="lsos_bfgs", max_epochs=2)
        r1 = run_fs_solver(LogRegModel(model.dataset), cfg, np.zeros(model.n),
                           RngStream(90, 0))
        r2 = run_fs_solver(LogRegModel(model.dataset), cfg, np.zeros(model.n),
                           RngStream(90, 0))
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace.column("f_hat") == r2.trace.column("f_hat")
