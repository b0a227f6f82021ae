"""L2-regularized logistic regression components and LIBSVM-format data.

With margin ``m_i = b_i a_i^T x`` and ``z_i = 1 + exp(-m_i)``:

    phi_i(x)      = log(z_i) + (mu/2) ||x||^2
    grad phi_i(x) = ((1 - z_i)/z_i) b_i a_i + mu x
    hess phi_i(x) = ((z_i - 1)/z_i^2) a_i a_i^T + mu I

Every kernel is a whole-array ufunc expression in ``e = exp(-|t|) <= 1``,
so values and gradients stay finite over the float64 exponent range:

    log(z)    = softplus(-m),  softplus(t) = max(t, 0) + log1p(e)
    (1-z)/z   = -sigmoid(-m),  sigmoid(t) = (1 if t >= 0 else e) / (1 + e)
    (z-1)/z^2 = sigmoid(m) sigmoid(-m) = (1/d) (e/d) in [0, 1/4],  d = 1 + e

The softplus is numpy's ``logaddexp(0, t)`` algorithm.  Each component is
``mu``-strongly convex and the full Hessian is bounded above by
``L = mu + max_i ||a_i||^2``.
"""

from __future__ import annotations

import gzip
import io
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .core import RngStream, Vector
from .finitesum import ALL_ROWS, FiniteSumProblem
from .linalg import damped_newton


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; the message carries the offending line number."""


@dataclass
class Dataset:
    """Binary classification data: sparse rows ``a_i`` and labels in {-1, +1}."""

    features: sp.csr_matrix
    labels: np.ndarray
    label_mapping: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = sp.csr_matrix(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("one label per row required")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not np.all(np.isfinite(self.features.data)):
            raise ValueError("non-finite feature values")

    @property
    def N(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def to_libsvm(self, fh) -> None:
        """Serialize in LIBSVM text format (1-based indices, +1/-1 labels)."""
        indptr, indices, data = (self.features.indptr, self.features.indices,
                                 self.features.data)
        for i in range(self.N):
            label = "+1" if self.labels[i] > 0 else "-1"
            parts = [label]
            for k in range(indptr[i], indptr[i + 1]):
                parts.append(f"{indices[k] + 1}:{float(data[k])!r}")
            fh.write(" ".join(parts) + "\n")


def _open_maybe_gzip(path: str):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_libsvm(source: Union[str, io.TextIOBase], n_features: Optional[int] = None) -> Dataset:
    """Parse LIBSVM text: ``<label> <idx>:<val> ...`` with 1-based indices.

    ``source`` is a path (gzip detected by magic bytes) or a text stream.
    Label sets {0,1}, {-1,+1} and {1,2} are normalized to {-1,+1} by mapping
    the smaller raw label to -1; the mapping is recorded on the dataset.
    Malformed tokens and non-finite labels or values raise
    :class:`LibsvmFormatError` with the line number;
    non-increasing indices within a line only warn.  An index repeated
    within a line keeps its last value, and zero values are not stored.
    """
    if isinstance(source, str):
        fh = _open_maybe_gzip(source)
        close = True
    else:
        fh, close = source, False
    raw_labels: list[float] = []
    row_sizes: list[int] = []
    skipped: list[int] = []  # numbers of the blank and comment lines
    all_cols: list[int] = []
    all_vals: list[float] = []
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                skipped.append(lineno)
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError as exc:
                raise LibsvmFormatError(f"line {lineno}: bad label {tokens[0]!r}") from exc
            if not math.isfinite(label):
                raise LibsvmFormatError(f"line {lineno}: bad label {tokens[0]!r}")
            prev_idx = 0
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError as exc:
                    raise LibsvmFormatError(f"line {lineno}: bad token {tok!r}") from exc
                if idx < 1:
                    raise LibsvmFormatError(f"line {lineno}: index {idx} < 1")
                if idx <= prev_idx:
                    warnings.warn(f"line {lineno}: non-increasing feature index {idx}")
                prev_idx = idx
                all_cols.append(idx)
                all_vals.append(val)
            raw_labels.append(label)
            row_sizes.append(len(tokens) - 1)
    finally:
        if close:
            fh.close()
    if not raw_labels:
        raise LibsvmFormatError("no data lines found")

    uniq = sorted(set(raw_labels))
    if len(uniq) > 2:
        raise LibsvmFormatError(f"expected two classes, found labels {uniq}")
    if uniq == [-1.0, 1.0] or uniq in ([-1.0], [1.0]):
        mapping = {-1.0: -1.0, 1.0: 1.0}
    elif len(uniq) == 2:
        mapping = {uniq[0]: -1.0, uniq[1]: 1.0}
    else:
        mapping = {uniq[0]: 1.0}
    labels = np.array([mapping[l] for l in raw_labels])

    max_index = max(all_cols, default=0)
    n = n_features if n_features is not None else max_index
    if n < max_index:
        raise LibsvmFormatError(f"n_features={n} below max index {max_index}")
    n = max(n, 1)
    n_rows = len(row_sizes)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), row_sizes)
    cols = np.asarray(all_cols, dtype=np.int64) - 1
    vals = np.asarray(all_vals, dtype=np.float64)
    if not np.isfinite(vals).all():
        k = int(np.argmin(np.isfinite(vals)))  # the first non-finite value
        line = int(rows[k]) + 1  # then one down per blank or comment line
        for s in skipped:
            line += s <= line
        raise LibsvmFormatError(f"line {line}: non-finite value {all_vals[k]!r} "
                                f"at index {all_cols[k]}")
    # stable sort by (row, column): repeats of an index keep file order
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    keep = vals != 0.0
    keep[:-1] &= (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n_rows), out=indptr[1:])
    features = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n_rows, n))
    return Dataset(features, labels, label_mapping=mapping)


def generate_synthetic_classification(N: int, n: int, separation: float,
                                      rng: RngStream,
                                      feature_condition: float = 1.0) -> Dataset:
    """Two Gaussian clouds at distance `separation` along a random direction.

    Labels mark cloud membership, so the Bayes error (the induced label
    noise w.r.t. the separating hyperplane) is ``Phi(-separation/2)``:
    large separations give linearly separable data with high probability.

    ``feature_condition > 1`` rescales coordinates with log-spaced factors
    so the feature second-moment matrix has roughly that condition number,
    imitating the badly scaled raw features of real datasets.
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    if feature_condition < 1:
        raise ValueError("feature_condition must be >= 1")
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    labels = np.where(rng.uniform(0.0, 1.0, N) < 0.5, -1.0, 1.0)
    points = rng.standard_normal((N, n)) + np.outer(labels * (separation / 2.0), w)
    if feature_condition > 1.0:
        points = points * np.logspace(0.0, 0.5 * math.log10(feature_condition), n)
    return Dataset(sp.csr_matrix(points), labels)


# The kernels reuse their temporaries (``out=``) to bound their peak memory;
# the arithmetic is that of the expressions in the module docstring.
def _softplus(t: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``log(1 + e^t)``, written into `out` if given (which may be `t`)."""
    e = np.abs(t)
    np.exp(np.negative(e, out=e), out=e)
    np.log1p(e, out=e)
    return np.add(np.maximum(t, 0.0, out=out), e,
                  out=e if out is None else out)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(t))
    num = np.where(t >= 0, 1.0, e)
    return np.divide(num, np.add(1.0, e, out=e), out=num)


def _scale_rows(rows, w: np.ndarray):
    """``diag(w) @ rows``, in the layout of `rows`."""
    return rows.multiply(w[:, None]) if sp.issparse(rows) else w[:, None] * rows


def _to_dense(a) -> np.ndarray:
    return a.toarray() if sp.issparse(a) else a


def _loss_factors(rows, labels: np.ndarray, x: Vector) -> np.ndarray:
    return -_sigmoid(-labels * (rows @ x)) * labels  # (1-z)/z * b_i


def _curvatures(rows, labels: np.ndarray, x: Vector) -> np.ndarray:
    e = np.exp(-np.abs(labels * (rows @ x)))
    d = 1.0 + e
    return np.multiply(1.0 / d, np.divide(e, d, out=e), out=e)  # (z-1)/z^2


class LogRegModel(FiniteSumProblem):
    """The finite-sum logistic objective over a :class:`Dataset`.

    ``mu`` defaults to ``1/N``.  Batch operations are vectorized over the
    row store ``store``, chosen once from the data: a dense ``ndarray`` when
    it takes no more memory than the CSR matrix (8 bytes per entry against
    12 per nonzero and 4 per row pointer, i.e. density above about 2/3),
    otherwise the dataset's CSR matrix itself.  A batch's data is its
    ``(rows, labels)``; :meth:`_slice` is the one place rows are cut from
    the store.
    """

    def __init__(self, dataset: Dataset, mu: Optional[float] = None):
        self.dataset = dataset
        self.mu = float(mu) if mu is not None else 1.0 / dataset.N
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        super().__init__(dataset.N, dataset.n)
        features = dataset.features
        dense = 8 * self.N * self.n <= 12 * features.nnz + 4 * (self.N + 1)
        self.store = features.toarray() if dense else features
        self._x_star: Optional[Vector] = None
        self._f_star: Optional[float] = None

    def _slice(self, idx):
        """Feature rows and labels of the components `idx`.

        :data:`ALL_ROWS` returns the whole store and label vector uncopied.
        """
        if idx is ALL_ROWS:
            return self.store, self.dataset.labels
        return self.store[idx], self.dataset.labels[idx]

    def _batch_value(self, part, x):
        rows, labels = part
        m = labels * (rows @ x)
        return float(np.mean(_softplus(-m)) + 0.5 * self.mu * (x @ x))

    def objectives(self, xs) -> np.ndarray:
        """Full objective at each row of `xs`, by one product ``store @ xs.T``.

        The margins are copied to C order, ``(B, N)``, so each row's mean
        is numpy's pairwise sum as in :meth:`_batch_value`: equal to
        :meth:`objective` to the last bit on a CSR store, and within 1 ulp
        on a dense one, whose ``B >= 2`` product is a matrix product.
        """
        xs = np.asarray(xs, dtype=np.float64)
        t = np.ascontiguousarray((self.store @ xs.T).T)
        losses = _softplus(np.multiply(t, -self.dataset.labels, out=t), out=t)
        regs = np.array([x @ x for x in xs])
        return np.mean(losses, axis=1) + 0.5 * self.mu * regs

    def _batch_gradient(self, part, x):
        rows, labels = part
        g = rows.T @ _loss_factors(rows, labels, x) / labels.size
        return g + self.mu * x

    def _component_gradients(self, part, x):
        rows, labels = part
        scaled = _scale_rows(rows, _loss_factors(rows, labels, x))
        return _to_dense(scaled) + self.mu * x[None, :]

    def _batch_hvp(self, part, x, v):
        rows, labels = part
        w = _curvatures(rows, labels, x)
        hv = rows.T @ (w * (rows @ v)) / labels.size
        return hv + self.mu * v

    def _batch_hessian(self, part, x):
        rows, labels = part
        w = _curvatures(rows, labels, x)
        h = _to_dense(_scale_rows(rows, w).T @ rows) / labels.size
        return h + self.mu * np.eye(self.n)

    def loss_factors(self, idx, x: Vector) -> np.ndarray:
        """Per-row loss-gradient scalars ``(1-z_i)/z_i * b_i``, uncounted."""
        part = self._slice(idx) if idx is ALL_ROWS else self.take(idx).data
        return _loss_factors(*part, x)

    def accuracy(self, x: Vector) -> float:
        pred = np.where(self.store @ x >= 0, 1.0, -1.0)
        return float(np.mean(pred == self.dataset.labels))

    @property
    def f_star(self) -> Optional[float]:
        """Reference optimal value, if :meth:`reference_optimum` has run."""
        return self._f_star

    def reference_optimum(self, tol: float = 1e-10,
                          max_iters: int = 200) -> tuple[Vector, float]:
        """Deterministic full-gradient damped Newton reference; cached."""
        if self._x_star is not None:
            return self._x_star, self._f_star
        whole = self._slice(ALL_ROWS)
        x = damped_newton(
            lambda x: self._batch_value(whole, x),
            lambda x: self._batch_gradient(whole, x),
            lambda x, g: np.linalg.solve(self._batch_hessian(whole, x), -g),
            np.zeros(self.n), tol, max_iters)
        self._x_star = x
        self._f_star = self._batch_value(whole, x)
        return self._x_star, self._f_star


class LogRegSagaTable:
    """Memory-lean SAGA table for logistic components with sparse rows.

    Components share the structure ``grad phi_i(x) = c_i(x) a_i + mu x``, so
    the table stores one scalar per component and a single accumulated
    loss-part sum; the regularizer term is added analytically at the current
    iterate instead of being replayed from per-slot storage.  The estimator
    stays exactly unbiased and coincides with the dense table whenever all
    slots were refreshed at the same iterate.
    """

    def __init__(self, model: LogRegModel, x0: Vector):
        self.model = model
        self.scalars = model.loss_factors(ALL_ROWS, x0)
        model.grad_evals += model.N
        self.loss_sum = model.store.T @ self.scalars

    def estimate(self, x: Vector, batch) -> Vector:
        batch = self.model.take(batch)
        rows, labels = batch.data
        fresh = _loss_factors(rows, labels, x)
        self.model.grad_evals += batch.size
        corr = rows.T @ (fresh - self.scalars[batch.idx]) / batch.size
        return corr + self.loss_sum / self.model.N + self.model.mu * x

    def update(self, batch, x_new: Vector) -> None:
        batch = self.model.take(batch)
        rows, labels = batch.data
        fresh = _loss_factors(rows, labels, x_new)
        self.model.grad_evals += batch.size
        self.loss_sum = self.loss_sum + rows.T @ (fresh - self.scalars[batch.idx])
        self.scalars[batch.idx] = fresh

    def recompute_sum(self) -> Vector:
        return self.model.store.T @ self.scalars
