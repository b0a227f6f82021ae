"""Mini-batch machinery: partitions, subsampled estimators, the SAGA table."""

import re
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stochnewton.core import RngStream
from stochnewton.finitesum import (Batch, QuadraticSumProblem, SagaTable,
                                   default_batch_size, make_partition)
from stochnewton.logreg import (Dataset, LogRegModel, LogRegSagaTable,
                                generate_synthetic_classification)

from conftest import fd_hvp_check, quadratic_sum_problem


class TestPartition:
    def test_even_split(self, rng):
        part = make_partition(6, 3, rng)
        assert sorted(len(b) for b in part) == [2, 2, 2]
        assert np.array_equal(np.sort(np.concatenate(list(part))), np.arange(6))

    def test_single_batch_is_full_set(self, rng):
        part = make_partition(5, 1, rng)
        assert np.array_equal(np.sort(part[0]), np.arange(5))

    def test_uneven_split_sizes(self, rng):
        part = make_partition(7, 3, rng)
        assert sorted(len(b) for b in part) == [2, 2, 3]

    def test_bounds(self, rng):
        with pytest.raises(ValueError):
            make_partition(4, 5, rng)
        with pytest.raises(ValueError):
            make_partition(4, 0, rng)

    @given(N=st.integers(1, 60), ratio=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_epoch_coverage_property(self, N, ratio):
        n_b = max(1, int(N * ratio))
        part = make_partition(N, n_b, RngStream(0, 0))
        covered = np.concatenate(list(part))
        assert np.array_equal(np.sort(covered), np.arange(N))
        sizes = [len(b) for b in part]
        assert max(sizes) - min(sizes) <= 1

    def test_default_batch_size(self):
        assert default_batch_size(2000) == 45
        assert default_batch_size(1) == 1


class TestSubsampledEstimators:
    def setup_method(self):
        self.prob = quadratic_sum_problem(6, 4, seed=3)
        self.x = RngStream(4, 0).standard_normal(4)

    def test_full_batch_equals_full_gradient(self):
        full = self.prob.full_gradient_exact(self.x)
        got = self.prob.batch_gradient(np.arange(6), self.x)
        np.testing.assert_allclose(got, full, atol=1e-12)

    def test_singleton_batch_is_component(self):
        got = self.prob.batch_gradient([1], self.x)
        expected = self.prob.hessians[1] @ self.x - self.prob.rhs[1]
        np.testing.assert_allclose(got, expected, atol=0)

    def test_exhaustive_mean_is_unbiased(self):
        full = self.prob.full_gradient_exact(self.x)
        batches = list(combinations(range(6), 2))
        mean = np.mean([self.prob.batch_gradient(np.array(b), self.x)
                        for b in batches], axis=0)
        np.testing.assert_allclose(mean, full, atol=1e-12)

    def test_hvp_equals_mean_hessian_action(self):
        v = RngStream(5, 0).standard_normal(4)
        got = self.prob.batch_hvp([0, 2, 4], self.x, v)
        mean_h = np.mean([self.prob.hessians[i] for i in (0, 2, 4)], axis=0)
        np.testing.assert_allclose(got, mean_h @ v, atol=1e-12)

    def test_hvp_zero_vector(self):
        got = self.prob.batch_hvp([0, 1], self.x, np.zeros(4))
        assert np.array_equal(got, np.zeros(4))

    def test_hvp_agrees_with_gradient_differences(self):
        batch = np.array([1, 3])
        v = RngStream(6, 0).standard_normal(4)
        err = fd_hvp_check(
            lambda z: self.prob.batch_gradient(batch, z),
            lambda z, w: self.prob.batch_hvp(batch, z, w),
            self.x, v, h=1e-6)
        assert err <= 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            self.prob.batch_gradient([], self.x)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.prob.batch_gradient([6], self.x)

    @pytest.mark.parametrize("hessians, rhs", [
        ((4, 3, 3), (4,)), ((4, 3, 3), (4, 5)), ((4, 3, 3), (5, 3)),
        ((4, 3, 2), (4, 3)), ((4, 3), (4, 3)), ((4, 3, 3), (4, 3, 1))])
    def test_shapes_are_checked(self, hessians, rhs):
        shapes = re.escape(f"{hessians} and {rhs}")
        with pytest.raises(ValueError, match=shapes):
            QuadraticSumProblem(np.ones(hessians), np.ones(rhs))

    def test_full_quantities_equal_component_means(self):
        # direct summation over all components, N <= 100
        prob = quadratic_sum_problem(20, 3, seed=9)
        x = RngStream(7, 0).standard_normal(3)
        fv = np.mean([prob.batch_value([i], x) for i in range(20)])
        assert prob.objective(x) == pytest.approx(fv, rel=1e-12)
        gv = np.mean([prob.batch_gradient([i], x) for i in range(20)], axis=0)
        np.testing.assert_allclose(prob.full_gradient_exact(x), gv, atol=1e-12)


class TestSagaTable:
    def test_estimator_at_init_point_is_full_gradient(self):
        prob = quadratic_sum_problem(6, 4, seed=11)
        x0 = RngStream(8, 0).standard_normal(4)
        table = SagaTable(prob, x0)
        full = prob.full_gradient_exact(x0)
        for batch in ([0], [2, 4], np.arange(6)):
            np.testing.assert_allclose(table.estimate(x0, batch),
                                       full, atol=1e-12)

    def test_exhaustive_unbiasedness_with_stale_table(self):
        prob = quadratic_sum_problem(6, 4, seed=12)
        rng = RngStream(9, 0)
        table = SagaTable(prob, rng.standard_normal(4))
        # age the table on a few arbitrary points
        for _ in range(5):
            table.update(rng.choice(6, size=2), rng.standard_normal(4))
        x = rng.standard_normal(4)
        full = prob.full_gradient_exact(x)
        batches = list(combinations(range(6), 2))
        mean = np.mean([table.estimate(x, np.array(b))
                        for b in batches], axis=0)
        np.testing.assert_allclose(mean, full, atol=1e-12)

    def test_full_epoch_refresh_restores_exactness(self):
        prob = quadratic_sum_problem(6, 4, seed=13)
        rng = RngStream(10, 0)
        table = SagaTable(prob, rng.standard_normal(4))
        x = rng.standard_normal(4)
        for batch in make_partition(6, 3, rng):
            table.update(batch, x)
        full = prob.full_gradient_exact(x)
        np.testing.assert_allclose(table.table,
                                   prob.component_gradients(np.arange(6), x),
                                   atol=1e-12)
        np.testing.assert_allclose(table.estimate(x, [3]), full,
                                   atol=1e-12)

    def test_running_sum_consistency_under_random_updates(self):
        prob = quadratic_sum_problem(50, 5, seed=14)
        rng = RngStream(11, 0)
        table = SagaTable(prob, rng.standard_normal(5))
        for _ in range(300):
            batch = rng.choice(50, size=int(rng.integers(1, 8)))
            table.update(batch, rng.standard_normal(5))
        drift = np.max(np.abs(table.running_sum - table.recompute_sum()))
        assert drift <= 1e-10

    def test_cost_contract(self):
        # one full-gradient pass at initialization, then 2|batch| component
        # gradients per iteration (fresh estimate + refresh at the new point)
        prob = quadratic_sum_problem(30, 3, seed=15)
        rng = RngStream(12, 0)
        assert prob.grad_evals == 0
        table = SagaTable(prob, np.zeros(3))
        assert prob.grad_evals == 30
        iters, bsize = 17, 5
        for _ in range(iters):
            batch = rng.choice(30, size=bsize)
            table.estimate(rng.standard_normal(3), batch)
            table.update(batch, rng.standard_normal(3))
        assert prob.grad_evals == 30 + 2 * bsize * iters


def _problem(kind):
    if kind == "quadratic":
        return quadratic_sum_problem(12, 4, seed=16)
    if kind == "logreg-dense":
        model = LogRegModel(generate_synthetic_classification(
            30, 5, 1.0, RngStream(17, 0)), mu=0.05)
        assert isinstance(model.store, np.ndarray)
        return model
    rng = np.random.default_rng(18)
    features = sp.random(40, 12, density=0.2, format="csr", random_state=rng,
                         data_rvs=rng.standard_normal)
    labels = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    model = LogRegModel(Dataset(features, labels), mu=0.05)
    assert isinstance(model.store, sp.csr_matrix)
    return model


def _tables(problem):
    tables = [SagaTable]
    if isinstance(problem, LogRegModel):
        tables.append(LogRegSagaTable)
    return tables


def _table_state(table):
    if isinstance(table, SagaTable):
        return table.table, table.running_sum
    return table.scalars, table.loss_sum


class TestBatchView:
    """``take(idx)`` is the index path, sliced once: same bits, same counts."""

    @pytest.fixture(params=["quadratic", "logreg-dense", "logreg-csr"])
    def problem(self, request):
        return _problem(request.param)

    def _idx(self, problem):
        idx = np.array([3, 1, 3, 0, 7, 7, 7, 2])  # repeats kept, unsorted
        assert idx.max() < problem.N
        return idx

    def _counted(self, problem, call):
        before = problem.counts()
        out = call()
        after = problem.counts()
        return out, (after.f_evals - before.f_evals,
                     after.g_evals - before.g_evals,
                     after.hvp_evals - before.hvp_evals)

    def test_take_keeps_the_index_array(self, problem):
        idx = self._idx(problem)
        batch = problem.take(list(idx))
        assert isinstance(batch, Batch)
        assert batch.idx.dtype == np.int64
        assert np.array_equal(batch.idx, idx) and batch.size == idx.size
        assert problem.take(batch) is batch

    def test_counted_operations_are_bit_identical(self, problem):
        idx = self._idx(problem)
        rng = RngStream(19, 0)
        x, v = rng.standard_normal(problem.n), rng.standard_normal(problem.n)
        ops = {
            "batch_value": lambda b: problem.batch_value(b, x),
            "batch_gradient": lambda b: problem.batch_gradient(b, x),
            "batch_hvp": lambda b: problem.batch_hvp(b, x, v),
            "component_gradients": lambda b: problem.component_gradients(b, x),
            "batch_hessian": lambda b: problem.batch_hessian(b, x),
        }
        batch = problem.take(idx)
        for name, op in ops.items():
            by_idx, idx_counts = self._counted(problem, lambda: op(idx))
            by_view, view_counts = self._counted(problem, lambda: op(batch))
            assert np.array_equal(by_view, by_idx), name
            assert view_counts == idx_counts and sum(idx_counts) == idx.size

    def test_saga_tables_are_bit_identical(self, problem):
        idx = self._idx(problem)
        rng = RngStream(20, 0)
        x0, x1, x2 = (rng.standard_normal(problem.n) for _ in range(3))
        for make in _tables(problem):
            by_idx, by_view = make(problem, x0), make(problem, x0)
            g_idx, est_counts = self._counted(problem,
                                              lambda: by_idx.estimate(x1, idx))
            batch = problem.take(idx)
            g_view, view_counts = self._counted(
                problem, lambda: by_view.estimate(x1, batch))
            assert np.array_equal(g_view, g_idx) and view_counts == est_counts
            _, upd_counts = self._counted(problem, lambda: by_idx.update(idx, x2))
            _, view_counts = self._counted(problem,
                                           lambda: by_view.update(batch, x2))
            assert view_counts == upd_counts == (0, idx.size, 0)
            for a, b in zip(_table_state(by_view), _table_state(by_idx)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [[-1, 3], []])
    def test_saga_tables_reject_bad_batches(self, problem, bad):
        x = np.zeros(problem.n)
        for make in _tables(problem):
            table = make(problem, x)
            before = problem.counts()
            with pytest.raises(ValueError):
                table.estimate(x, bad)
            with pytest.raises(ValueError):
                table.update(bad, x)
            assert problem.counts() == before


class TestObjectives:
    """The block objective ``objectives(xs)`` against ``objective`` per row."""

    @staticmethod
    def _iterates(problem, B):
        return 2.0 * RngStream(21, B).standard_normal((B, problem.n))

    @staticmethod
    def _per_point(problem, xs):
        return np.array([problem.objective(x) for x in xs])

    @pytest.mark.parametrize("B", range(1, 10))
    def test_csr_store_is_bit_identical(self, B):
        rng = np.random.default_rng(22)
        features = sp.random(2000, 30, density=0.1, format="csr",
                             random_state=rng, data_rvs=rng.standard_normal)
        labels = np.where(rng.uniform(size=2000) < 0.5, -1.0, 1.0)
        model = LogRegModel(Dataset(features, labels))
        assert isinstance(model.store, sp.csr_matrix)
        xs = self._iterates(model, B)
        assert np.array_equal(model.objectives(xs), self._per_point(model, xs))

    @pytest.mark.parametrize("B", [1, 2, 5, 9])
    def test_dense_store_matches_to_rounding(self, B):
        model = LogRegModel(generate_synthetic_classification(
            2000, 30, 1.0, RngStream(23, 0)))
        assert isinstance(model.store, np.ndarray)
        xs = self._iterates(model, B)
        np.testing.assert_allclose(model.objectives(xs),
                                   self._per_point(model, xs),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("B", [1, 4])
    def test_quadratic_maps_the_objective(self, B):
        problem = quadratic_sum_problem(12, 4, seed=24)
        xs = self._iterates(problem, B)
        assert np.array_equal(problem.objectives(xs),
                              self._per_point(problem, xs))
