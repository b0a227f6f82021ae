"""Logistic components, LIBSVM parsing, synthetic classification data."""

import gzip
import io
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from stochnewton import logreg
from stochnewton.core import RngStream
from stochnewton.finitesum import ALL_ROWS
from stochnewton.logreg import (Dataset, LibsvmFormatError, LogRegModel,
                                LogRegSagaTable, _curvatures, _sigmoid,
                                _softplus, generate_synthetic_classification,
                                parse_libsvm)

from conftest import fd_gradient_check, fd_hvp_check


def _tiny_model(mu=0.1):
    rows = sp.csr_matrix(np.array([[1.0, 0.0, 2.0],
                                   [0.0, -1.0, 0.5],
                                   [3.0, 1.0, 0.0],
                                   [-1.0, 2.0, 1.0]]))
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    return LogRegModel(Dataset(rows, labels), mu=mu)


class TestComponentFormulas:
    def test_value_and_gradient_at_origin(self):
        # z_i = 2 at x = 0: value log 2, gradient -b_i a_i / 2
        model = _tiny_model(mu=0.1)
        x = np.zeros(3)
        assert model.batch_value([0], x) == pytest.approx(np.log(2.0))
        a0 = model.dataset.features[0].toarray().ravel()
        np.testing.assert_allclose(model.batch_gradient([0], x), -0.5 * a0,
                                   atol=1e-15)

    def test_gradient_asymptote_at_large_margin(self):
        # when b_i a_i^T x is large the loss term vanishes, leaving mu x
        model = _tiny_model(mu=0.25)
        x = np.array([40.0, 0.0, 0.0])  # margin 40 for component 0
        g = model.batch_gradient([0], x)
        np.testing.assert_allclose(g, 0.25 * x, atol=1e-14)

    def test_hessian_factor_in_unit_quarter_interval(self, rng):
        w = _margin_curvatures(rng.uniform(-700, 700, 200))
        assert np.all((0.0 < w) & (w <= 0.25))

    def test_gradient_matches_finite_differences(self, rng):
        model = _tiny_model()
        for idx in [[i] for i in range(model.N)] + [np.arange(model.N)]:
            x = rng.standard_normal(3)
            err = fd_gradient_check(lambda z: model.batch_value(idx, z),
                                    lambda z: model.batch_gradient(idx, z),
                                    x, h=1e-6)
            assert err <= 1e-5

    def test_hvp_matches_finite_differences(self, rng):
        model = _tiny_model()
        all_idx = np.arange(model.N)
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        err = fd_hvp_check(lambda z: model.batch_gradient(all_idx, z),
                           lambda z, w: model.batch_hvp(all_idx, z, w),
                           x, v, h=1e-6)
        assert err <= 1e-4

    def test_curvature_bracket(self, rng):
        model = _tiny_model(mu=0.05)
        all_idx = np.arange(model.N)
        features = model.dataset.features
        L = model.mu + features.multiply(features).sum(axis=1).max()
        for _ in range(50):
            x = rng.standard_normal(3) * 3
            v = rng.standard_normal(3)
            quad = v @ model.batch_hvp(all_idx, x, v)
            assert model.mu * (v @ v) - 1e-12 <= quad
            assert quad <= L * (v @ v) + 1e-12

    def test_stability_at_extreme_margins(self):
        model = _tiny_model()
        # margin +-700 for component 0 (a0 . x = 700 with b0 = +1)
        for sign in (+1.0, -1.0):
            x = sign * np.array([700.0, 0.0, 0.0])
            f = model.batch_value([0], x)
            g = model.batch_gradient([0], x)
            assert np.isfinite(f) and np.all(np.isfinite(g))

    def test_mean_consistency(self):
        model = _tiny_model()
        x = np.array([0.3, -0.7, 1.1])
        comp_mean = np.mean([model.batch_gradient([i], x)
                             for i in range(model.N)], axis=0)
        np.testing.assert_allclose(model.batch_gradient(np.arange(4), x),
                                   comp_mean, atol=1e-14)

    def test_index_out_of_range(self):
        model = _tiny_model()
        with pytest.raises(ValueError):
            model.batch_gradient([4], np.zeros(3))


def _reference_sigmoid(t):
    """The sign-masked sigmoid the ufunc kernel replaced, kept as its reference."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _margin_curvatures(m):
    """``_curvatures`` at margins `m`: one all-ones feature, labels `m`, x = 1."""
    return _curvatures(np.ones((m.size, 1)), m, np.ones(1))


def _kernel_inputs():
    """Signed zeros, subnormals, exp's overflow and underflow edges, +-inf,
    and normal draws at scales from 0.01 to 800."""
    edges = np.array([0.0, 1e-310, 709.0, 745.0, np.inf])
    rng = RngStream(11, 0)
    draws = [s * rng.standard_normal(2000) for s in (0.01, 0.1, 1, 10, 100, 800)]
    return np.concatenate([edges, -edges, *draws])


class TestKernels:
    """The ufunc kernels against the sign-masked forms and ``np.logaddexp``."""

    def test_sigmoid_is_bit_identical_to_masked_form(self):
        t = _kernel_inputs()
        assert np.array_equal(_sigmoid(t), _reference_sigmoid(t))

    def test_curvatures_are_bit_identical_to_sigmoid_product(self):
        m = _kernel_inputs()
        ref = _reference_sigmoid(m) * _reference_sigmoid(-m)
        assert np.array_equal(_margin_curvatures(m), ref)

    def test_softplus_matches_logaddexp(self):
        t = -_kernel_inputs()
        got, ref = _softplus(t), np.logaddexp(0.0, t)
        exact = (ref == 0.0) | np.isinf(ref)
        assert np.array_equal(got[exact], ref[exact])
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)


class TestLibsvmParsing:
    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("+1 3:0.5 7:1.0\n-1 1:2.0\n"))
        assert ds.N == 2 and ds.n == 7
        assert ds.labels.tolist() == [1.0, -1.0]
        assert ds.features[0, 2] == 0.5 and ds.features[0, 6] == 1.0

    def test_zero_one_labels_normalized(self):
        ds = parse_libsvm(io.StringIO("0 1:2\n1 1:3\n"))
        assert ds.labels.tolist() == [-1.0, 1.0]
        assert ds.label_mapping == {0.0: -1.0, 1.0: 1.0}

    def test_one_two_labels_normalized(self):
        ds = parse_libsvm(io.StringIO("2 1:1\n1 1:1\n"))
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_round_trip(self):
        data = generate_synthetic_classification(25, 6, 2.0, RngStream(3, 0))
        buf = io.StringIO()
        data.to_libsvm(buf)
        buf.seek(0)
        back = parse_libsvm(buf, n_features=6)
        assert back.N == data.N and back.n == data.n
        assert np.array_equal(back.labels, data.labels)
        assert np.max(np.abs((back.features - data.features).toarray())) == 0.0

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "tiny.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("+1 1:1.5\n-1 2:-0.5\n")
        ds = parse_libsvm(str(path))
        assert ds.N == 2 and ds.features[1, 1] == -0.5

    @pytest.mark.parametrize("text, line", [
        ("+1 1:1\nspam 1:1\n", 2), ("nan 1:1\n1 1:2\n", 1),
        ("inf 1:1\n-1 1:2\n", 1), ("1 1:1\n-inf 1:2\n", 2)],
        ids=["word", "nan", "inf", "-inf"])
    def test_bad_label_reports_line(self, text, line):
        with pytest.raises(LibsvmFormatError, match=f"line {line}:"):
            parse_libsvm(io.StringIO(text))

    @pytest.mark.parametrize("text, line", [
        ("+1 1:one\n", 1), ("1 1:nan\n-1 2:1\n", 1), ("1 1:inf\n-1 2:1\n", 1),
        ("# header\n\n+1 1:1\n-1 1:2 3:-inf\n", 4)],
        ids=["word", "nan", "inf", "-inf-after-comment"])
    def test_bad_token_reports_line(self, text, line):
        with pytest.raises(LibsvmFormatError, match=f"line {line}:"):
            parse_libsvm(io.StringIO(text))

    def test_non_increasing_indices_warn_but_parse(self):
        with pytest.warns(UserWarning, match="non-increasing"):
            ds = parse_libsvm(io.StringIO("+1 3:1.0 2:2.0\n-1 1:1\n"))
        assert ds.features[0, 1] == 2.0

    def test_empty_input_rejected(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm(io.StringIO("\n\n"))

    def test_n_features_override_too_small(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm(io.StringIO("+1 5:1\n"), n_features=3)

    @pytest.mark.parametrize("text, expected_warnings", [
        # repeated indices (last value wins), explicit zeros, out-of-order
        # indices and an empty row
        ("+1 4:1.5 2:-2.0 4:3.0 7:0\n"
         "-1 3:0 3:2.5 1:1.0\n"
         "+1 5:1.0 5:0.0 6:-0.0\n"
         "-1\n"
         "+1 9:0.25 8:4.0 2:1e-3 2:7.0\n",
         ["line 1: non-increasing feature index 2",
          "line 2: non-increasing feature index 3",
          "line 2: non-increasing feature index 1",
          "line 3: non-increasing feature index 5",
          "line 5: non-increasing feature index 8",
          "line 5: non-increasing feature index 2",
          "line 5: non-increasing feature index 2"]),
        # ordered lines with explicit zeros: dropped without a re-sort
        ("+1 1:0 2:1.5 4:-0.0 9:2\n"
         "-1\n"
         "+1 3:0.0\n"
         "-1 1:-1 3:0 5:4 6:0\n",
         []),
        # only the last line is out of order
        ("+1 1:1 3:2 5:0\n"
         "-1 2:-1 8:3\n"
         "+1 9:0.5 4:2 4:0 1:7\n",
         ["line 3: non-increasing feature index 4",
          "line 3: non-increasing feature index 4",
          "line 3: non-increasing feature index 1"]),
    ], ids=["unordered", "ordered-zeros", "last-line-unordered"])
    def test_matches_entrywise_lil_reference(self, text, expected_warnings):
        # against entry-by-entry lil assignment
        def lil_reference():
            rows = []
            for line in text.splitlines():
                tokens = line.split()
                rows.append([(int(t.split(":")[0]) - 1, float(t.split(":")[1]))
                             for t in tokens[1:]])
            mat = sp.lil_matrix((len(rows), 9))
            for i, entries in enumerate(rows):
                for j, v in entries:
                    mat[i, j] = v
            return mat.tocsr()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = parse_libsvm(io.StringIO(text)).features
        expected = lil_reference()
        assert got.shape == expected.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(expected, attr))
        assert got.has_sorted_indices
        assert [str(w.message) for w in caught] == expected_warnings

    def test_sort_key_does_not_overflow(self):
        # n_rows * n >= 2**63: a combined row * n + col key would wrap and
        # move row 2's entries into row 0
        text = "+1 2:5 1:7\n-1 3:1\n+1 4611686018427387904:9 1:2\n"
        with pytest.warns(UserWarning, match="non-increasing"):
            ds = parse_libsvm(io.StringIO(text))
        rows = [dict(zip(ds.features[i].indices.tolist(), ds.features[i].data.tolist()))
                for i in range(ds.N)]
        assert rows == [{0: 7.0, 1: 5.0}, {2: 1.0}, {0: 2.0, 2**62 - 1: 9.0}]

    def test_index_beyond_int64_reports_line(self):
        with pytest.raises(LibsvmFormatError, match="line 2: index 9223372036854775808"):
            parse_libsvm(io.StringIO("+1 1:1\n-1 9223372036854775808:1\n"))

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_undecodable_bytes(self, tmp_path, compress):
        def parse(raw):
            path = tmp_path / "data.txt"
            path.write_bytes(gzip.compress(raw) if compress else raw)
            return parse_libsvm(str(path))

        assert parse(b"# caf\xe9\n+1 1:1\n-1 2:3\n").N == 2
        with pytest.raises(LibsvmFormatError, match="line 2: bad token"):
            parse(b"+1 1:1\n-1 2:1\xa05\n")
        with pytest.raises(LibsvmFormatError, match="line 3: bad label"):
            parse(b"+1 1:1\n\n\xa0-1 2:1\n")

    def test_parse_peak_memory_per_nonzero(self, tmp_path):
        # 12000 x 200 at 5 % density: 120k nonzeros, rows sorted as written
        rng = np.random.default_rng(7)
        features = sp.random(12000, 200, density=0.05, format="csr",
                             random_state=rng, data_rvs=rng.standard_normal)
        data = Dataset(features, np.where(rng.uniform(size=12000) < 0.5, -1.0, 1.0))
        path = tmp_path / "data.libsvm"
        with open(path, "w", encoding="utf-8") as fh:
            data.to_libsvm(fh)
        tracemalloc.start()
        try:
            back = parse_libsvm(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.features.nnz == data.features.nnz >= 100_000
        assert peak / back.features.nnz <= 48

    def test_bad_index_reports_line(self):
        with pytest.raises(LibsvmFormatError, match="line 2: index 0 < 1"):
            parse_libsvm(io.StringIO("+1 1:1\n-1 2:1 0:1\n"))

    def test_comments_and_blanks_skipped(self):
        ds = parse_libsvm(io.StringIO("# header\n\n+1 1:1\n-1 1:2\n"))
        assert ds.N == 2


class TestSyntheticClassification:
    def test_dataset_invariants(self):
        ds = generate_synthetic_classification(100, 2, 1.0, RngStream(4, 0))
        assert ds.N == 100 and ds.n == 2
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_fixed_seed_reproduces(self):
        a = generate_synthetic_classification(30, 4, 2.0, RngStream(5, 0))
        b = generate_synthetic_classification(30, 4, 2.0, RngStream(5, 0))
        assert np.array_equal(a.labels, b.labels)
        assert (a.features != b.features).nnz == 0

    def test_wide_separation_is_separable(self):
        ds = generate_synthetic_classification(200, 5, 10.0, RngStream(6, 0))
        model = LogRegModel(ds, mu=1e-6)
        x_star, _ = model.reference_optimum(tol=1e-8)
        pred = np.where(ds.features @ x_star >= 0, 1.0, -1.0)
        assert np.array_equal(pred, ds.labels)

    def test_feature_condition_scales_columns(self):
        iso = generate_synthetic_classification(500, 8, 0.0, RngStream(7, 0))
        ill = generate_synthetic_classification(500, 8, 0.0, RngStream(7, 0),
                                                feature_condition=100.0)
        iso_norms = np.asarray(iso.features.power(2).sum(axis=0)).ravel()
        ill_norms = np.asarray(ill.features.power(2).sum(axis=0)).ravel()
        ratio = ill_norms / iso_norms
        assert ratio[0] == pytest.approx(1.0)
        assert ratio[-1] == pytest.approx(100.0, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_classification(0, 2, 1.0, RngStream(0, 0))
        with pytest.raises(ValueError):
            generate_synthetic_classification(5, 2, 1.0, RngStream(0, 0),
                                              feature_condition=0.5)


class TestReferenceOptimum:
    def test_gradient_norm_postcondition_and_cache(self):
        ds = generate_synthetic_classification(150, 6, 1.5, RngStream(8, 0))
        model = LogRegModel(ds)
        x1, f1 = model.reference_optimum(tol=1e-10)
        assert np.linalg.norm(model.batch_gradient(np.arange(150), x1)) <= 1e-10
        x2, f2 = model.reference_optimum()
        assert x1 is x2 and f1 == f2
        assert model.f_star == f1

    def test_default_mu_is_one_over_N(self):
        ds = generate_synthetic_classification(40, 3, 1.0, RngStream(9, 0))
        assert LogRegModel(ds).mu == pytest.approx(1.0 / 40)

    def test_each_newton_step_is_one_cholesky_solve(self, monkeypatch):
        steps, solves = [], []
        damped_newton, solve_direct = logreg.damped_newton, logreg.solve_direct

        def counted_newton(value, gradient, newton_solve, *args):
            def step(x, g):
                steps.append(1)
                return newton_solve(x, g)
            return damped_newton(value, gradient, step, *args)

        def counted_solve(op, rhs):
            solves.append(op.dense.shape)
            return solve_direct(op, rhs)

        monkeypatch.setattr(logreg, "damped_newton", counted_newton)
        monkeypatch.setattr(logreg, "solve_direct", counted_solve)
        ds = generate_synthetic_classification(150, 6, 1.5, RngStream(8, 0))
        LogRegModel(ds).reference_optimum(tol=1e-10)
        assert len(steps) >= 2
        assert solves == [(6, 6)] * len(steps)


class TestLossSplitSagaTable:
    def test_matches_dense_table_at_initialization(self):
        from stochnewton.finitesum import SagaTable
        ds = generate_synthetic_classification(30, 4, 1.0, RngStream(10, 0))
        x0 = RngStream(11, 0).standard_normal(4)
        dense = SagaTable(LogRegModel(ds), x0)
        split = LogRegSagaTable(LogRegModel(ds), x0)
        x = RngStream(12, 0).standard_normal(4)
        for batch in ([0], [3, 7, 20]):
            a = dense.estimate(x, np.asarray(batch))
            b = split.estimate(x, np.asarray(batch))
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_exhaustive_unbiasedness_after_updates(self):
        from itertools import combinations
        ds = generate_synthetic_classification(6, 3, 1.0, RngStream(13, 0))
        model = LogRegModel(ds, mu=0.05)
        rng = RngStream(14, 0)
        table = LogRegSagaTable(model, rng.standard_normal(3))
        for _ in range(4):
            table.update(rng.choice(6, size=2), rng.standard_normal(3))
        x = rng.standard_normal(3)
        full = model.full_gradient_exact(x)
        batches = list(combinations(range(6), 2))
        mean = np.mean([table.estimate(x, np.array(b)) for b in batches], axis=0)
        np.testing.assert_allclose(mean, full, atol=1e-12)

    def test_loss_sum_consistency(self):
        ds = generate_synthetic_classification(40, 5, 1.0, RngStream(15, 0))
        model = LogRegModel(ds)
        rng = RngStream(16, 0)
        table = LogRegSagaTable(model, np.zeros(5))
        for _ in range(100):
            table.update(rng.choice(40, size=4), rng.standard_normal(5))
        drift = np.max(np.abs(table.loss_sum - table.recompute_sum()))
        assert drift <= 1e-10


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(sp.csr_matrix(np.ones((2, 2))), np.array([1.0, 2.0]))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(sp.csr_matrix(np.ones((2, 2))), np.array([1.0]))


def _reference_ops(dense, labels, mu, idx, x, v):
    """Per-component numpy reference for the batch operations over `idx`."""
    grads, hvps, hessians, values, factors = [], [], [], [], []
    for i in idx:
        a, b = dense[i], labels[i]
        m = b * (a @ x)
        c = -b / (1.0 + np.exp(m))
        w = 1.0 / ((1.0 + np.exp(m)) * (1.0 + np.exp(-m)))
        values.append(np.logaddexp(0.0, -m) + 0.5 * mu * (x @ x))
        factors.append(c)
        grads.append(c * a + mu * x)
        hvps.append(w * (a @ v) * a + mu * v)
        hessians.append(w * np.outer(a, a) + mu * np.eye(a.size))
    return {"value": np.mean(values), "factors": np.array(factors),
            "grads": np.array(grads), "gradient": np.mean(grads, axis=0),
            "hvp": np.mean(hvps, axis=0),
            "hessian": np.mean(hessians, axis=0)}


class TestRowStore:
    """Every operation agrees with a per-component reference on both stores."""

    @pytest.fixture(params=["dense", "sparse"])
    def model(self, request):
        if request.param == "dense":
            data = generate_synthetic_classification(60, 5, 1.0, RngStream(20, 0))
        else:
            rng = np.random.default_rng(21)
            features = sp.random(80, 40, density=0.05, format="csr",
                                 random_state=rng, data_rvs=rng.standard_normal)
            data = Dataset(features, np.where(rng.uniform(size=80) < 0.5, -1.0, 1.0))
        model = LogRegModel(data, mu=0.05)
        stored = np.ndarray if request.param == "dense" else sp.csr_matrix
        assert type(model.store) is stored
        if request.param == "sparse":
            assert model.store is data.features
        return model

    def _close(self, got, expected):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_batch_operations(self, model):
        dense = model.dataset.features.toarray()
        labels = model.dataset.labels
        rng = RngStream(22, 0)
        x, v = rng.standard_normal(model.n), rng.standard_normal(model.n)
        idx = np.sort(rng.choice(model.N, size=7))
        ref = _reference_ops(dense, labels, model.mu, idx, x, v)
        self._close(model.batch_value(idx, x), ref["value"])
        self._close(model.batch_gradient(idx, x), ref["gradient"])
        self._close(model.component_gradients(idx, x), ref["grads"])
        self._close(model.batch_hvp(idx, x, v), ref["hvp"])
        self._close(model.batch_hessian(idx, x), ref["hessian"])
        self._close(model.loss_factors(idx, x), ref["factors"])

    @pytest.mark.parametrize("idx", [[-1], []])
    def test_loss_factors_validates_the_batch(self, model, idx):
        x = np.zeros(model.n)
        with pytest.raises(ValueError, match="batch"):
            model.loss_factors(idx, x)
        assert model.loss_factors(ALL_ROWS, x).shape == (model.N,)

    def test_all_rows_queries(self, model):
        dense = model.dataset.features.toarray()
        rng = RngStream(23, 0)
        x, v = rng.standard_normal(model.n), rng.standard_normal(model.n)
        ref = _reference_ops(dense, model.dataset.labels, model.mu,
                             range(model.N), x, v)
        self._close(model.objective(x), ref["value"])
        self._close(model.full_gradient_exact(x), ref["gradient"])
        self._close(model._batch_hessian(model._slice(ALL_ROWS), x),
                    ref["hessian"])
        x_star, f_star = model.reference_optimum()
        ref_star = _reference_ops(dense, model.dataset.labels, model.mu,
                                  range(model.N), x_star, v)
        self._close(f_star, ref_star["value"])
        assert np.linalg.norm(ref_star["gradient"]) <= 1e-9

    def test_full_size_batch_with_repeats_is_not_all_rows(self, model):
        rng = RngStream(24, 0)
        x = rng.standard_normal(model.n)
        idx = np.sort(rng.choice(model.N, size=model.N, replace=True))
        assert np.unique(idx).size < model.N
        ref = _reference_ops(model.dataset.features.toarray(),
                             model.dataset.labels, model.mu, idx, x, x)
        self._close(model.batch_value(idx, x), ref["value"])
        self._close(model.batch_gradient(idx, x), ref["gradient"])
        assert model.batch_value(idx, x) != pytest.approx(model.objective(x),
                                                          rel=1e-9)

    def test_loss_split_table(self, model):
        dense = model.dataset.features.toarray()
        labels = model.dataset.labels
        rng = RngStream(25, 0)
        x0, x1, x2 = (rng.standard_normal(model.n) for _ in range(3))
        table = LogRegSagaTable(model, x0)
        scalars = _reference_ops(dense, labels, model.mu, range(model.N),
                                 x0, x0)["factors"]
        self._close(table.scalars, scalars)
        self._close(table.loss_sum, dense.T @ scalars)
        batch = np.sort(rng.choice(model.N, size=6))
        fresh = _reference_ops(dense, labels, model.mu, batch, x1, x1)["factors"]
        expected = (dense[batch].T @ (fresh - scalars[batch]) / batch.size
                    + dense.T @ scalars / model.N + model.mu * x1)
        self._close(table.estimate(x1, batch), expected)
        table.update(batch, x2)
        scalars[batch] = _reference_ops(dense, labels, model.mu, batch,
                                        x2, x2)["factors"]
        self._close(table.scalars, scalars)
        self._close(table.loss_sum, dense.T @ scalars)
