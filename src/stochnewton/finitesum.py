"""Finite-sum objectives: mini-batch machinery and variance-reduced estimators.

The objective is the sample mean ``phi(x) = (1/N) sum_i phi_i(x)`` of ``N``
component functions.  Concrete problems subclass :class:`FiniteSumProblem`
and implement the per-component oracle; the base class provides mean-over-
batch defaults and component-level evaluation accounting (the accounting is
what the SAGA cost contract is asserted against).

Two gradient estimators are provided:

* plain subsampling, ``(1/|K|) sum_{i in K} grad phi_i(x)``, and
* a mini-batch SAGA estimator that keeps one stored gradient per component
  and combines a fresh mini-batch correction with the table average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import RngStream, Vector

ALL_ROWS = slice(None)
"""``idx`` of the private ``_batch_*`` methods for "every component".

Only the uncounted all-rows queries pass it, so a subclass can read its
whole data without an index copy.  A counted batch is always an index
array, even one of size ``N``, which may repeat components."""


class FiniteSumProblem:
    """Base class for ``phi = (1/N) sum phi_i`` with per-component access.

    Subclasses must implement the ``_component_*`` methods; overriding the
    ``_batch_*`` implementations with vectorized versions is encouraged.
    Public methods maintain the component-evaluation counters.

    ``mu_strong`` / ``grad_lipschitz`` hold the strong-convexity and gradient
    Lipschitz constants when the problem knows them (otherwise ``None``).
    """

    def __init__(self, N: int, n: int, mu_strong: Optional[float] = None,
                 grad_lipschitz: Optional[float] = None):
        if N < 1 or n < 1:
            raise ValueError("N and n must be >= 1")
        self.N = N
        self.n = n
        self.mu_strong = mu_strong
        self.grad_lipschitz = grad_lipschitz
        self.value_evals = 0
        self.grad_evals = 0
        self.hvp_evals = 0

    # -- per-component oracle (abstract) ------------------------------------

    def _component_value(self, i: int, x: Vector) -> float:
        raise NotImplementedError

    def _component_gradient(self, i: int, x: Vector) -> Vector:
        raise NotImplementedError

    def _component_hvp(self, i: int, x: Vector, v: Vector) -> Vector:
        raise NotImplementedError

    # -- batch implementations (override for speed) --------------------------

    def _batch_value(self, idx, x: Vector) -> float:
        idx = np.arange(self.N)[idx]
        return float(np.mean([self._component_value(i, x) for i in idx]))

    def _batch_gradient(self, idx, x: Vector) -> Vector:
        idx = np.arange(self.N)[idx]
        g = np.zeros(self.n)
        for i in idx:
            g += self._component_gradient(i, x)
        return g / len(idx)

    def _batch_hvp(self, idx, x: Vector, v: Vector) -> Vector:
        hv = np.zeros(self.n)
        for i in idx:
            hv += self._component_hvp(i, x, v)
        return hv / len(idx)

    def _component_gradients(self, idx, x: Vector) -> np.ndarray:
        return np.stack([self._component_gradient(i, x) for i in idx])

    def _batch_hessian(self, idx, x: Vector) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} does not expose dense subsampled Hessians"
        )

    # -- public, counted oracle ----------------------------------------------

    def _check_batch(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("batch must be non-empty")
        if idx.min() < 0 or idx.max() >= self.N:
            raise ValueError(f"batch indices out of range 0..{self.N - 1}")
        return idx

    def component_value(self, i: int, x: Vector) -> float:
        self.value_evals += 1
        return self._component_value(int(i), x)

    def component_gradient(self, i: int, x: Vector) -> Vector:
        self.grad_evals += 1
        return self._component_gradient(int(i), x)

    def component_hvp(self, i: int, x: Vector, v: Vector) -> Vector:
        self.hvp_evals += 1
        return self._component_hvp(int(i), x, v)

    def batch_value(self, idx, x: Vector) -> float:
        idx = self._check_batch(idx)
        self.value_evals += idx.size
        return self._batch_value(idx, x)

    def batch_gradient(self, idx, x: Vector) -> Vector:
        idx = self._check_batch(idx)
        self.grad_evals += idx.size
        return self._batch_gradient(idx, x)

    def batch_hvp(self, idx, x: Vector, v: Vector) -> Vector:
        idx = self._check_batch(idx)
        self.hvp_evals += idx.size
        return self._batch_hvp(idx, x, v)

    def component_gradients(self, idx, x: Vector) -> np.ndarray:
        """Stacked per-component gradients, shape ``(len(idx), n)``."""
        idx = self._check_batch(idx)
        self.grad_evals += idx.size
        return self._component_gradients(idx, x)

    def batch_hessian(self, idx, x: Vector) -> np.ndarray:
        idx = self._check_batch(idx)
        self.hvp_evals += idx.size
        return self._batch_hessian(idx, x)

    # -- uncounted exact queries (instrumentation) ---------------------------

    def objective(self, x: Vector) -> float:
        """Full objective, outside the evaluation accounting."""
        return self._batch_value(ALL_ROWS, x)

    def full_gradient_exact(self, x: Vector) -> Vector:
        """Full gradient, outside the evaluation accounting."""
        return self._batch_gradient(ALL_ROWS, x)


class QuadraticSumProblem(FiniteSumProblem):
    """``phi_i(x) = 0.5 x^T H_i x - b_i^T x`` with SPD mean Hessian (test/demo)."""

    def __init__(self, hessians: Sequence[np.ndarray], rhs: Sequence[Vector]):
        hessians = [np.asarray(h, dtype=np.float64) for h in hessians]
        rhs = [np.asarray(b, dtype=np.float64) for b in rhs]
        if len(hessians) != len(rhs):
            raise ValueError("need one rhs per Hessian")
        n = hessians[0].shape[0]
        self.hessians = hessians
        self.rhs = rhs
        mean_h = np.mean(hessians, axis=0)
        eigs = np.linalg.eigvalsh(mean_h)
        super().__init__(len(hessians), n, mu_strong=float(eigs[0]),
                         grad_lipschitz=float(max(np.linalg.eigvalsh(h)[-1]
                                                  for h in hessians)))

    def _component_value(self, i, x):
        return float(0.5 * x @ self.hessians[i] @ x - self.rhs[i] @ x)

    def _component_gradient(self, i, x):
        return self.hessians[i] @ x - self.rhs[i]

    def _component_hvp(self, i, x, v):
        return self.hessians[i] @ v

    def _batch_hessian(self, idx, x):
        return np.mean([self.hessians[i] for i in idx], axis=0)


# -- mini-batch plumbing ------------------------------------------------------


@dataclass
class BatchPartition:
    """Disjoint index batches covering ``0..N-1``, consumed cyclically."""

    batches: list
    cursor: int = 0

    def __post_init__(self):
        sizes = [len(b) for b in self.batches]
        if max(sizes) - min(sizes) > 1:
            raise ValueError("batch sizes must differ by at most 1")
        all_idx = np.concatenate(self.batches)
        if np.unique(all_idx).size != all_idx.size:
            raise ValueError("batches must be disjoint")

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    def next_batch(self) -> np.ndarray:
        b = self.batches[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.batches)
        return b

    def __iter__(self):
        return iter(self.batches)


def make_partition(N: int, n_b: int, rng: RngStream) -> BatchPartition:
    """Random equi-partition of ``{0..N-1}`` into ``n_b`` batches (sizes +-1)."""
    if not (1 <= n_b <= N):
        raise ValueError(f"need 1 <= n_b <= N, got n_b={n_b}, N={N}")
    perm = rng.permutation(N)
    return BatchPartition([np.sort(b) for b in np.array_split(perm, n_b)])


def default_batch_size(N: int) -> int:
    return int(np.ceil(np.sqrt(N)))


# -- estimators ----------------------------------------------------------------


def subsampled_gradient(problem: FiniteSumProblem, x: Vector, batch) -> Vector:
    """Mean of the component gradients over `batch` (unbiased)."""
    return problem.batch_gradient(batch, x)


def subsampled_hvp(problem: FiniteSumProblem, x: Vector, batch, v: Vector) -> Vector:
    """Action of the subsampled Hessian over `batch` on ``v`` (unbiased)."""
    return problem.batch_hvp(batch, x, v)


class SagaTable:
    """Stored per-component gradients ``J^(i)`` with an incremental sum.

    ``estimate`` implements the mini-batch estimator

        (1/|K|) sum_{i in K} (grad phi_i(x) - J^(i)) + (1/N) sum_l J^(l),

    and ``update`` overwrites the slots of the batch with gradients taken at
    the *new* iterate, fixing the running sum incrementally.  ``running_sum``
    is the only derived state; :meth:`recompute_sum` is the test oracle for
    its consistency.
    """

    def __init__(self, problem: FiniteSumProblem, x0: Vector):
        self.problem = problem
        self.table = problem.component_gradients(np.arange(problem.N), x0)
        self.running_sum = self.table.sum(axis=0)

    def estimate(self, x: Vector, batch) -> Vector:
        batch = np.asarray(batch, dtype=np.int64)
        fresh = self.problem.component_gradients(batch, x)
        corr = fresh.mean(axis=0) - self.table[batch].mean(axis=0)
        return corr + self.running_sum / self.problem.N

    def update(self, batch, x_new: Vector) -> None:
        batch = np.asarray(batch, dtype=np.int64)
        fresh = self.problem.component_gradients(batch, x_new)
        self.running_sum = self.running_sum + (fresh.sum(axis=0)
                                               - self.table[batch].sum(axis=0))
        self.table[batch] = fresh

    def recompute_sum(self) -> Vector:
        return self.table.sum(axis=0)


def saga_gradient(problem: FiniteSumProblem, x: Vector, batch,
                  table: SagaTable) -> Vector:
    return table.estimate(x, batch)


def saga_update(table: SagaTable, batch, x_new: Vector) -> None:
    table.update(batch, x_new)
