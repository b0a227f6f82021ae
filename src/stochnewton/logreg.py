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
from array import array
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .core import RngStream, Vector
from .finitesum import ALL_ROWS, FiniteSumProblem
from .linalg import damped_newton, solve_direct


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
    # utf-8-sig drops a leading byte-order mark.  surrogateescape: an
    # undecodable byte reaches the parser as a lone surrogate, so a comment
    # line stays skipped and a token fails by line
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8-sig",
                                errors="surrogateescape")
    return open(path, "r", encoding="utf-8-sig", errors="surrogateescape")


_BLOCK_CHARS = 1 << 16  # text converted per block; bounds the transient


def _warn_unordered(lineno: int, idx: int) -> None:
    warnings.warn(f"line {lineno}: non-increasing feature index {idx}")


class _LibsvmRows:
    """The typed buffers :func:`parse_libsvm` fills, one block of data lines
    at a time.  A block is its file line numbers, label tokens, feature
    token counts and the feature tokens of all its lines in order."""

    def __init__(self):
        self.labels = array("d")
        self.sizes = array("q")
        self.lines = array("q")  # the file line of each data row
        self.cols = array("q")
        self.vals = array("d")
        self.ordered = True

    def add(self, lines, labels, sizes, tokens) -> None:
        if not self._add_bulk(lines, labels, sizes, tokens):
            self._raise_first_bad_line(lines, labels, sizes, tokens)

    def _add_bulk(self, lines, labels, sizes, tokens) -> bool:
        """Convert the block by one numpy call each for its labels, indices
        and values.  Returns False, having added nothing, when a token fails
        a check: the token-wise scan then names the first bad line."""
        text = " ".join(tokens)
        raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        colons = np.flatnonzero(raw == ord(":"))
        if colons.size != len(tokens):
            return False
        # token k spans the bytes between edges[k] and edges[k + 1]; with as
        # many colons as tokens, each holds one, with text on both sides
        edges = np.concatenate(([-1], np.flatnonzero(raw == ord(" ")), [raw.size]))
        if not np.all((edges[:-1] + 1 < colons) & (colons < edges[1:] - 1)):
            return False
        pieces = text.replace(":", " ").split()
        try:  # the conversions of float() and int(), into arrays
            label_vals = np.array(labels, dtype=np.float64)
            cols = np.array(pieces[0::2], dtype=np.int64)
            vals = np.array(pieces[1::2], dtype=np.float64)
        except (ValueError, OverflowError):
            return False
        if not np.isfinite(label_vals).all() or np.any(cols < 1):
            return False
        ends = np.cumsum(sizes, dtype=np.int64)
        fresh = np.zeros(len(tokens) + 1, dtype=bool)
        fresh[ends] = True  # token k starts a row: its index is not compared
        down = np.flatnonzero((cols[1:] <= cols[:-1]) & ~fresh[1:-1]) + 1
        if down.size:
            self.ordered = False
            rows = np.searchsorted(ends, down, side="right")
            for row, k in zip(rows.tolist(), down.tolist()):
                _warn_unordered(lines[row], int(cols[k]))
        self.labels.frombytes(label_vals.tobytes())
        self.sizes.extend(sizes)
        self.lines.extend(lines)
        self.cols.frombytes(cols.tobytes())
        self.vals.frombytes(vals.tobytes())
        return True

    @staticmethod
    def _raise_first_bad_line(lines, labels, sizes, tokens) -> None:
        """Name the first bad line of a block :meth:`_add_bulk` refused.

        Every refusal has a token or label that fails here, so the scan
        always raises; it warns of the non-increasing indices before it.
        """
        start = 0
        for lineno, label_tok, size in zip(lines, labels, sizes):
            try:
                label = float(label_tok)
            except ValueError:
                label = math.nan
            if not math.isfinite(label):
                raise LibsvmFormatError(f"line {lineno}: bad label {label_tok!r}")
            prev_idx = 0
            for tok in tokens[start:start + size]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, _ = int(idx_s), float(val_s)
                except ValueError as exc:
                    raise LibsvmFormatError(f"line {lineno}: bad token {tok!r}") from exc
                if idx < 1:
                    raise LibsvmFormatError(f"line {lineno}: index {idx} < 1")
                if idx <= prev_idx:
                    _warn_unordered(lineno, idx)
                if idx >= 2**63:
                    raise LibsvmFormatError(f"line {lineno}: index {idx} beyond int64")
                prev_idx = idx
            start += size
        raise AssertionError("a refused LIBSVM block has no bad line")


def parse_libsvm(source: Union[str, io.TextIOBase], n_features: Optional[int] = None) -> Dataset:
    """Parse LIBSVM text: ``<label> <idx>:<val> ...`` with 1-based indices.

    ``source`` is a path (gzip detected by magic bytes; a leading UTF-8
    byte-order mark is skipped) or a text stream.
    Label sets {0,1}, {-1,+1} and {1,2} are normalized to {-1,+1} by mapping
    the smaller raw label to -1; the mapping is recorded on the dataset.
    Malformed tokens, indices beyond int64, non-finite labels or values and
    bytes that are not UTF-8 (outside comment lines) raise
    :class:`LibsvmFormatError` with the line number;
    non-increasing indices within a line only warn.  An index repeated
    within a line keeps its last value, and zero values are not stored.

    Each line is split once.  The lines are converted in blocks of about
    64k characters: one numpy call for a block's labels, one for its
    indices and one for its values (``float()`` and ``int()`` semantics),
    with the colon layout, index >= 1, int64-range, label finiteness and
    index-order checks run over arrays.  A block that fails a check is
    scanned again token by token, which names its first bad line.  Indices
    and values go into typed buffers, 16 bytes per nonzero, and the value
    buffer becomes the CSR data without a copy when nothing is dropped.
    Input whose lines are all strictly increasing (as
    :meth:`Dataset.to_libsvm` writes) is not re-sorted.
    """
    if isinstance(source, str):
        fh = _open_maybe_gzip(source)
        close = True
    else:
        fh, close = source, False
    buf = _LibsvmRows()
    try:
        lines, labels, sizes, tokens, chars = [], [], [], [], 0
        for lineno, line in enumerate(fh, start=1):
            words = line.split()
            if not words or words[0].startswith("#"):
                continue
            lines.append(lineno)
            labels.append(words[0])
            sizes.append(len(words) - 1)
            tokens += words[1:]
            chars += len(line)
            if chars >= _BLOCK_CHARS:
                buf.add(lines, labels, sizes, tokens)
                lines, labels, sizes, tokens, chars = [], [], [], [], 0
        buf.add(lines, labels, sizes, tokens)
    finally:
        if close:
            fh.close()
    if not buf.labels:
        raise LibsvmFormatError("no data lines found")

    uniq = sorted(set(buf.labels))
    if len(uniq) > 2:
        raise LibsvmFormatError(f"expected two classes, found labels {uniq}")
    if uniq == [-1.0, 1.0] or uniq in ([-1.0], [1.0]):
        mapping = {-1.0: -1.0, 1.0: 1.0}
    elif len(uniq) == 2:
        mapping = {uniq[0]: -1.0, uniq[1]: 1.0}
    else:
        mapping = {uniq[0]: 1.0}
    labels = np.array([mapping[l] for l in buf.labels])

    cols = np.frombuffer(buf.cols, dtype=np.int64)
    vals = np.frombuffer(buf.vals, dtype=np.float64)
    max_index = int(cols.max()) if cols.size else 0
    n = n_features if n_features is not None else max_index
    if n < max_index:
        raise LibsvmFormatError(f"n_features={n} below max index {max_index}")
    n = max(n, 1)
    n_rows = len(buf.sizes)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    sizes = np.frombuffer(buf.sizes, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    if not np.isfinite(vals).all():
        k = int(np.argmin(np.isfinite(vals)))  # the first non-finite value
        line = buf.lines[int(np.searchsorted(indptr, k, side="right")) - 1]
        raise LibsvmFormatError(f"line {line}: non-finite value {buf.vals[k]!r} "
                                f"at index {buf.cols[k]}")
    cols -= 1  # in place: the buffer is not read again
    if buf.ordered:
        keep = vals != 0.0
    else:
        # stable sort by (row, column): repeats of an index keep file order,
        # so the last one survives; rows are already in order and stay put
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), sizes)
        order = np.lexsort((cols, rows))
        cols, vals = cols[order], vals[order]
        keep = vals != 0.0
        keep[:-1] &= (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    dropped = np.flatnonzero(~keep)
    if dropped.size:
        cols, vals = cols[keep], vals[keep]
        dropped_rows = np.searchsorted(indptr, dropped, side="right") - 1
        indptr[1:] -= np.cumsum(np.bincount(dropped_rows, minlength=n_rows))
    features = sp.csr_matrix((vals, cols, indptr), shape=(n_rows, n))
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
    """``diag(w) @ rows``, in the layout of `rows`.

    CSR rows stay CSR: each stored entry is scaled by its row's weight on
    the rows' own ``indices`` and ``indptr``, without the COO matrix that
    ``rows.multiply`` returns and a sparse product converts back.
    """
    if not sp.issparse(rows):
        return w[:, None] * rows
    data = rows.data * np.repeat(w, np.diff(rows.indptr))
    return sp.csr_matrix((data, rows.indices, rows.indptr), shape=rows.shape)


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
        if not 0.0 < self.mu < math.inf:  # NaN fails too
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
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
        """Full objective at each row of `xs`, equal to :meth:`objective`.

        A CSR store takes one product ``store @ xs.T`` for the whole block.
        The margins are in C order, ``(B, N)``, so each row's mean is
        numpy's pairwise sum as in :meth:`_batch_value`, and every value is
        bit-identical to :meth:`objective`'s.  A dense store calls
        :meth:`objective` per row: a matrix product would round differently.
        """
        if not sp.issparse(self.store):
            return super().objectives(xs)
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

    def _batch_hessian(self, part, x, columns=None):
        """Dense batch Hessian; `columns`, if given, is the batch's rows in
        CSC layout, which the sparse product would otherwise build."""
        rows, labels = part
        w = _curvatures(rows, labels, x)
        right = rows if columns is None else columns
        h = _to_dense(_scale_rows(rows, w).T @ right) / labels.size
        return h + self.mu * np.eye(self.n)

    def saga_table(self, x0: Vector) -> "LogRegSagaTable":
        """The loss-split SAGA table, one scalar per component."""
        return LogRegSagaTable(self, x0)

    def loss_factors(self, idx, x: Vector) -> np.ndarray:
        """Per-row loss-gradient scalars ``(1-z_i)/z_i * b_i``, uncounted."""
        part = self._slice(idx) if idx is ALL_ROWS else self.take(idx).data
        return _loss_factors(*part, x)

    @property
    def f_star(self) -> Optional[float]:
        """Reference optimal value, if :meth:`reference_optimum` has run."""
        return self._f_star

    def reference_optimum(self, tol: float = 1e-10,
                          max_iters: int = 200) -> tuple[Vector, float]:
        """Deterministic full-gradient damped Newton reference; cached.

        Each Newton step is a Cholesky solve (:func:`solve_direct`): the
        full Hessian is SPD since ``mu > 0``.  A CSR store stays CSR in
        every Hessian; one column-major (CSC) copy of it is built for the
        whole loop and dropped when it ends.
        """
        if self._x_star is not None:
            return self._x_star, self._f_star
        whole = self._slice(ALL_ROWS)
        columns = self.store.tocsc() if sp.issparse(self.store) else None
        x = damped_newton(
            lambda x: self._batch_value(whole, x),
            lambda x: self._batch_gradient(whole, x),
            lambda x, g: solve_direct(self._batch_hessian(whole, x, columns), -g),
            np.zeros(self.n), tol, max_iters)
        self._x_star = x
        self._f_star = self._batch_value(whole, x)
        return self._x_star, self._f_star


class LogRegSagaTable:
    """The SAGA table of every logistic run: one scalar per component.

    Components share the structure ``grad phi_i(x) = c_i(x) a_i + mu x``, so
    the table stores the loss factors ``c_i`` and a single accumulated
    loss-part sum, O(N) memory on dense or sparse rows; the regularizer
    term ``mu x`` is added exactly at the current iterate instead of being
    replayed from per-slot storage (the standard SAGA form for linear
    models: Defazio, Bach & Lacoste-Julien 2014, section 4).  The estimator
    stays exactly unbiased and coincides with :class:`SagaTable` whenever
    all slots were refreshed at the same iterate.
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
