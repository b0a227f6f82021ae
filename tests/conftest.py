import math
import warnings
from array import array

import numpy as np
import pytest
import scipy.sparse as sp

from stochnewton.core import EvalCounts, OracleSample, RngStream
from stochnewton.finitesum import ALL_ROWS, FiniteSumProblem
from stochnewton.linalg import SpdOperator
from stochnewton.logreg import Dataset, LibsvmFormatError, _open_maybe_gzip


def random_spd(n, rng, eig_lo=1.0, eig_hi=10.0):
    """SPD matrix with eigenvalues linearly spaced in [eig_lo, eig_hi]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    return (q * np.linspace(eig_lo, eig_hi, n)) @ q.T


def fd_gradient_check(f, grad, x, h=1e-6):
    """Max scaled error between ``grad(x)`` and central differences of ``f``.

    Per-coordinate central differences ``(f(x + h e_i) - f(x - h e_i)) / 2h``
    are compared against ``grad(x)``; errors are scaled by
    ``max(1, ||grad(x)||_inf)`` so the result is meaningful both near and far
    from stationary points.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad(x), dtype=np.float64)
    fd = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (f(xp) - f(xm)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(g))))
    return float(np.max(np.abs(fd - g)) / scale)


def fd_hvp_check(grad, hvp, x, v, h=1e-6):
    """Scaled error of ``hvp(x, v)`` against central differences of ``grad`` along ``v``."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hv = np.asarray(hvp(x, v), dtype=np.float64)
    fd = (np.asarray(grad(x + h * v)) - np.asarray(grad(x - h * v))) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(hv))))
    return float(np.max(np.abs(fd - hv)) / scale)


class ExactQuadraticOracle:
    """Noise-free oracle for f(x) = x^T H x / 2 - b^T x (solver-driver tests)."""

    def __init__(self, h, b=None):
        self.h = np.asarray(h, dtype=np.float64)
        self.n = self.h.shape[0]
        self.b = np.zeros(self.n) if b is None else np.asarray(b, np.float64)
        self.x_star = np.linalg.solve(self.h, self.b)
        self.f_star = self._value(self.x_star)

    def _value(self, x):
        return float(0.5 * x @ self.h @ x - self.b @ x)

    def sample(self, x, *, want_value=False, want_gradient=False,
               want_hessian=False):
        return OracleSample(
            value=self._value(x) if want_value else None,
            gradient=self.h @ x - self.b if want_gradient else None,
            hessian=SpdOperator(self.n, dense=self.h) if want_hessian else None,
        )

    def counts(self):
        return EvalCounts()

    def true_error(self, x, f_star):
        return self._value(x) - f_star


class QuadraticSumProblem(FiniteSumProblem):
    """``phi_i(x) = 0.5 x^T H_i x - b_i^T x`` with SPD mean Hessian.

    ``hessians`` has shape ``(N, n, n)`` and ``rhs`` shape ``(N, n)``.
    """

    def __init__(self, hessians, rhs):
        self.hessians = np.asarray(hessians, dtype=np.float64)
        self.rhs = np.asarray(rhs, dtype=np.float64)
        shape = self.rhs.shape  # (N, n)
        if len(shape) != 2 or self.hessians.shape != shape + shape[1:]:
            raise ValueError(f"need Hessians of shape (N, n, n) and rhs of "
                             f"shape (N, n), got {self.hessians.shape} and "
                             f"{shape}")
        super().__init__(*shape)

    def _slice(self, idx):
        return self.hessians[idx], self.rhs[idx]

    def _batch_value(self, part, x):
        hessians, rhs = part
        hx = hessians @ x
        return float(np.mean(0.5 * (hx @ x) - rhs @ x))

    def _component_gradients(self, part, x):
        hessians, rhs = part
        return hessians @ x - rhs

    def _batch_gradient(self, part, x):
        return self._component_gradients(part, x).mean(axis=0)

    def _batch_hvp(self, part, x, v):
        return (part[0] @ v).mean(axis=0)

    def _batch_hessian(self, part, x):
        return part[0].mean(axis=0)


def full_gradient_exact(problem, x):
    """The full gradient of a finite-sum `problem`, outside its accounting."""
    return problem._batch_gradient(problem._slice(ALL_ROWS), x)


def reference_cg(op, rhs, rel_tol, max_iters):
    """Plain CG, allocating and unpreconditioned, with ``solve_cg``'s stop
    test, residual refresh and certificate: the reference for its loop
    preconditioned by the identity.  Returns ``(d, rel_res, iters)``."""
    rhs_norm = float(np.linalg.norm(rhs))
    d = np.zeros(op.n)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    iters = 0
    threshold = rel_tol * rhs_norm
    while iters < max_iters and np.sqrt(rs) > threshold:
        bp = op.apply(p)
        curv = float(p @ bp)
        alpha = rs / curv
        d += alpha * p
        iters += 1
        if iters % 50 == 0:
            r = rhs - op.apply(d)
        else:
            r -= alpha * bp
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    final = float(np.linalg.norm(rhs - op.apply(d))) / rhs_norm
    return d, final, iters


def materialize(memory, n):
    """The dense inverse-Hessian approximation of an L-BFGS `memory` (small n).

    Applies the BFGS update ``H <- V^T H V + rho s s^T``, ``V = I - rho y s^T``,
    over the stored pairs, oldest first, from the two-loop recursion's seed.
    """
    if not memory.pairs:
        return np.eye(n)
    s_m, y_m, _ = memory.pairs[-1]
    h = (float(s_m @ y_m) / float(y_m @ y_m)) * np.eye(n)
    for s, y, rho in memory.pairs:
        v = np.eye(n) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return h


def recompute_sum(table):
    """A ``SagaTable``'s ``running_sum`` recomputed from its slots."""
    return table.table.sum(axis=0)


def recompute_loss_sum(table):
    """A ``LogRegSagaTable``'s ``loss_sum`` recomputed from its scalars."""
    return table.model.store.T @ table.scalars


def verify_secant(memory, tol=1e-8):
    """Check ``H y_m = s_m`` for the most recent pair of an L-BFGS `memory`."""
    if not memory.pairs:
        raise ValueError("no stored pairs")
    s_m, y_m, _ = memory.pairs[-1]
    lhs = memory.apply_inverse_hessian(y_m)
    scale = max(1.0, float(np.linalg.norm(s_m)))
    return bool(np.linalg.norm(lhs - s_m) <= tol * scale)


def quadratic_sum_problem(N, n, seed=0):
    rng = RngStream(seed, 0)
    hessians, rhs = [], []
    for _ in range(N):
        hessians.append(random_spd(n, rng))
        rhs.append(rng.standard_normal(n))
    return QuadraticSumProblem(hessians, rhs)


def reference_parse_libsvm(source, n_features=None):
    """``parse_libsvm`` as it was before block-wise conversion: one Python
    conversion per token.  The reference for the differential parser test;
    a path is opened by the library's ``_open_maybe_gzip``, as there."""
    if isinstance(source, str):
        fh = _open_maybe_gzip(source)
        close = True
    else:
        fh, close = source, False
    raw_labels = array("d")
    row_sizes = array("q")
    row_lines = array("q")  # the file line of each data row
    all_cols = array("q")
    all_vals = array("d")
    add_col, add_val = all_cols.append, all_vals.append
    ordered = True
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
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
                    ordered = False
                prev_idx = idx
                try:
                    add_col(idx)
                except OverflowError as exc:
                    raise LibsvmFormatError(f"line {lineno}: index {idx} beyond int64") from exc
                add_val(val)
            raw_labels.append(label)
            row_sizes.append(len(tokens) - 1)
            row_lines.append(lineno)
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

    cols = np.frombuffer(all_cols, dtype=np.int64)
    vals = np.frombuffer(all_vals, dtype=np.float64)
    max_index = int(cols.max()) if cols.size else 0
    n = n_features if n_features is not None else max_index
    if n < max_index:
        raise LibsvmFormatError(f"n_features={n} below max index {max_index}")
    n = max(n, 1)
    n_rows = len(row_sizes)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    sizes = np.frombuffer(row_sizes, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    if not np.isfinite(vals).all():
        k = int(np.argmin(np.isfinite(vals)))  # the first non-finite value
        line = row_lines[int(np.searchsorted(indptr, k, side="right")) - 1]
        raise LibsvmFormatError(f"line {line}: non-finite value {all_vals[k]!r} "
                                f"at index {all_cols[k]}")
    cols -= 1  # in place: the buffer is not read again
    if ordered:
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


@pytest.fixture
def rng():
    return RngStream(1234, 0)
