"""Mini-batch machinery: partitions, subsampled estimators, the SAGA table."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochnewton.core import RngStream
from stochnewton.finitesum import (BatchPartition, SagaTable,
                                   default_batch_size, make_partition)
from stochnewton.linalg import fd_hvp_check

from conftest import quadratic_sum_problem


class TestPartition:
    def test_even_split(self, rng):
        part = make_partition(6, 3, rng)
        assert sorted(len(b) for b in part) == [2, 2, 2]
        assert np.array_equal(np.sort(np.concatenate(list(part))), np.arange(6))

    def test_single_batch_is_full_set(self, rng):
        part = make_partition(5, 1, rng)
        assert np.array_equal(np.sort(part.batches[0]), np.arange(5))

    def test_uneven_split_sizes(self, rng):
        part = make_partition(7, 3, rng)
        assert sorted(len(b) for b in part) == [2, 2, 3]

    def test_bounds(self, rng):
        with pytest.raises(ValueError):
            make_partition(4, 5, rng)
        with pytest.raises(ValueError):
            make_partition(4, 0, rng)

    def test_constructor_rejects_uneven_batches(self):
        with pytest.raises(ValueError):
            BatchPartition([np.arange(4), np.array([4])])

    def test_constructor_rejects_overlap(self):
        with pytest.raises(ValueError):
            BatchPartition([np.array([0, 1]), np.array([1, 2])])

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
            lambda z: self.prob._batch_gradient(batch, z),
            lambda z, w: self.prob._batch_hvp(batch, z, w),
            self.x, v, h=1e-6)
        assert err <= 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            self.prob.batch_gradient([], self.x)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.prob.batch_gradient([6], self.x)

    def test_full_quantities_equal_component_means(self):
        # direct summation over all components, N <= 100
        prob = quadratic_sum_problem(20, 3, seed=9)
        x = RngStream(7, 0).standard_normal(3)
        fv = np.mean([prob._batch_value([i], x) for i in range(20)])
        assert prob.objective(x) == pytest.approx(fv, rel=1e-12)
        gv = np.mean([prob._batch_gradient([i], x) for i in range(20)], axis=0)
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
                                   prob._component_gradients(np.arange(6), x),
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
