"""Averaged-iterate L-BFGS memory: pair harvesting, two-loop application,
secant and positivity identities."""

import numpy as np
import pytest

from stochnewton.core import RngStream
from stochnewton.slbfgs import LbfgsMemory

from conftest import (materialize, quadratic_sum_problem, random_spd,
                      verify_secant)


def _pairs_from_spd(mem, h, rng, count):
    for _ in range(count):
        s = rng.standard_normal(h.shape[0])
        mem.insert_pair(s, h @ s)


class TestRecordIterate:
    def test_constant_iterates_store_nothing(self):
        mem = LbfgsMemory(m=5, update_interval=2)
        c = np.ones(3)
        for _ in range(10):
            mem.record_iterate(c, hvp=lambda w, s: s)
        assert len(mem.pairs) == 0
        assert mem.pairs_rejected > 0

    def test_window_averaging(self):
        # l=2: windows (e1, 3e1) -> w1 = 2e1 and (5e1, 7e1) -> w2 = 6e1,
        # so the first pair has s = 4e1
        mem = LbfgsMemory(m=5, update_interval=2)
        e1 = np.array([1.0, 0.0])
        seen = {}

        def hvp(w, s):
            seen["w"] = w.copy()
            seen["s"] = s.copy()
            return 2.0 * s

        for c in (1.0, 3.0, 5.0, 7.0):
            mem.record_iterate(c * e1, hvp)
        assert len(mem.pairs) == 1
        np.testing.assert_allclose(seen["w"], 6.0 * e1)
        np.testing.assert_allclose(seen["s"], 4.0 * e1)
        np.testing.assert_allclose(mem.pairs[0][0], 4.0 * e1)

    def test_first_pair_after_two_windows(self):
        mem = LbfgsMemory(m=5, update_interval=5)
        rng = RngStream(1, 0)
        inserted_at = []
        for k in range(20):
            if mem.record_iterate(rng.standard_normal(4), lambda w, s: s):
                inserted_at.append(k)
        # pairs complete at records 10, 15, 20 (1-based), i.e. k = 9, 14, 19
        assert inserted_at == [9, 14, 19]

    def test_y_is_subsampled_mean_hessian_action(self):
        prob = quadratic_sum_problem(6, 4, seed=2)
        batch = np.array([0, 3, 5])
        mem = LbfgsMemory(m=3, update_interval=2)
        rng = RngStream(2, 0)
        for _ in range(4):
            mem.record_iterate(rng.standard_normal(4),
                               lambda w, s: prob.batch_hvp(batch, w, s))
        s, y, _ = mem.pairs[-1]
        mean_h = np.mean([prob.hessians[i] for i in batch], axis=0)
        np.testing.assert_allclose(y, mean_h @ s, atol=1e-12)


class TestApplyInverseHessian:
    def test_empty_memory_is_identity(self, rng):
        mem = LbfgsMemory()
        v = rng.standard_normal(7)
        out = mem.apply_inverse_hessian(v)
        assert np.array_equal(out, v)
        assert out is not v

    def test_single_axis_pair_preserves_identity(self):
        # s = y = e1 gives H0 = I and an update that maps back to I
        mem = LbfgsMemory()
        e1 = np.array([1.0, 0.0])
        assert mem.insert_pair(e1, e1)
        v = np.array([0.3, -1.2])
        np.testing.assert_allclose(mem.apply_inverse_hessian(v), v, atol=1e-15)

    def test_matches_dense_recursion(self, rng):
        h = random_spd(20, rng, 1, 30)
        mem = LbfgsMemory(m=10)
        _pairs_from_spd(mem, h, rng, 10)
        dense = materialize(mem, 20)
        for _ in range(20):
            v = rng.standard_normal(20)
            err = np.max(np.abs(mem.apply_inverse_hessian(v) - dense @ v))
            assert err < 1e-10

    def test_inverse_consistency_with_conjugate_pairs(self, rng):
        # with n H-conjugate directions and exact curvature y = H s the
        # recursion reproduces the true inverse on the whole space
        n = 5
        h = random_spd(n, rng, 1, 10)
        dirs = []
        for _ in range(n):
            v = rng.standard_normal(n)
            for s in dirs:
                v = v - (s @ h @ v) / (s @ h @ s) * s
            dirs.append(v)
        mem = LbfgsMemory(m=n)
        for s in dirs:
            mem.insert_pair(s, h @ s)
        for _ in range(10):
            v = rng.standard_normal(n)
            err = np.linalg.norm(mem.apply_inverse_hessian(h @ v) - v)
            assert err < 1e-8 * max(1.0, np.linalg.norm(v))

    def test_spd_on_random_probes(self, rng):
        h = random_spd(12, rng, 0.5, 80)
        mem = LbfgsMemory(m=8)
        _pairs_from_spd(mem, h, rng, 8)
        for _ in range(100):
            v = rng.standard_normal(12)
            assert v @ mem.apply_inverse_hessian(v) > 0

    def test_deterministic(self, rng):
        mem = LbfgsMemory(m=4)
        _pairs_from_spd(mem, random_spd(6, rng), rng, 4)
        v = rng.standard_normal(6)
        assert np.array_equal(mem.apply_inverse_hessian(v),
                              mem.apply_inverse_hessian(v))


class TestPairGuards:
    def test_orthogonal_pair_rejected(self):
        mem = LbfgsMemory()
        assert not mem.insert_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert len(mem.pairs) == 0

    def test_negative_curvature_rejected(self):
        mem = LbfgsMemory()
        s = np.array([1.0, 2.0])
        assert not mem.insert_pair(s, -s)

    def test_fifo_eviction(self, rng):
        h = random_spd(4, rng)
        mem = LbfgsMemory(m=3)
        _pairs_from_spd(mem, h, rng, 5)
        assert len(mem.pairs) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            LbfgsMemory(m=0)
        with pytest.raises(ValueError):
            LbfgsMemory(update_interval=0)


class TestSecant:
    def test_single_pair(self, rng):
        h = random_spd(5, rng)
        mem = LbfgsMemory()
        _pairs_from_spd(mem, h, rng, 1)
        assert verify_secant(mem)

    def test_many_pairs(self, rng):
        h = random_spd(8, rng, 1, 40)
        mem = LbfgsMemory(m=10)
        _pairs_from_spd(mem, h, rng, 10)
        assert verify_secant(mem)

    def test_corrupted_pair_fails(self, rng):
        h = random_spd(5, rng)
        mem = LbfgsMemory()
        _pairs_from_spd(mem, h, rng, 1)
        s, y, rho = mem.pairs[-1]
        mem.pairs[-1] = (s, -y, rho)  # bypass the insertion guard
        assert not verify_secant(mem)

    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            verify_secant(LbfgsMemory())
