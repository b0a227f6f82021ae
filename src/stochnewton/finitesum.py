"""Finite-sum objectives: mini-batch machinery and variance-reduced estimators.

The objective is the sample mean ``phi(x) = (1/N) sum_i phi_i(x)`` of ``N``
component functions.  The mini-batch is the only oracle granularity:
concrete problems subclass :class:`FiniteSumProblem` and implement the
private batch methods; the base class validates batches and keeps the
component-evaluation accounting (the accounting is what the SAGA cost
contract is asserted against).

Two gradient estimators are provided:

* plain subsampling, ``(1/|K|) sum_{i in K} grad phi_i(x)``, and
* a mini-batch SAGA estimator that keeps one stored gradient per component
  and combines a fresh mini-batch correction with the table average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import EvalCounts, RngStream, Vector

ALL_ROWS = slice(None)
"""``idx`` of the private ``_batch_*`` methods for "every component".

Only the uncounted all-rows queries pass it, so a subclass can read its
whole data without an index copy.  A counted batch is always an index
array, even one of size ``N``, which may repeat components."""


class FiniteSumProblem:
    """Base class for ``phi = (1/N) sum phi_i``, evaluated by mini-batches.

    Subclasses implement, for an index array or :data:`ALL_ROWS` ``idx``,
    the batch means ``_batch_value(idx, x)``, ``_batch_gradient(idx, x)``,
    ``_batch_hvp(idx, x, v)`` and ``_batch_hessian(idx, x)`` (dense), and
    the stacked rows ``_component_gradients(idx, x)``.  The public methods
    validate the batch and count one evaluation per component in it.

    ``grad_lipschitz`` holds the gradient Lipschitz constant when the
    problem knows it (otherwise ``None``).
    """

    def __init__(self, N: int, n: int, grad_lipschitz: Optional[float] = None):
        if N < 1 or n < 1:
            raise ValueError("N and n must be >= 1")
        self.N = N
        self.n = n
        self.grad_lipschitz = grad_lipschitz
        self.value_evals = 0
        self.grad_evals = 0
        self.hvp_evals = 0

    # -- public, counted oracle ----------------------------------------------

    def _check_batch(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("batch must be non-empty")
        if idx.min() < 0 or idx.max() >= self.N:
            raise ValueError(f"batch indices out of range 0..{self.N - 1}")
        return idx

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

    def counts(self) -> EvalCounts:
        """The cumulative component-evaluation counters."""
        return EvalCounts(self.value_evals, self.grad_evals, self.hvp_evals)

    # -- uncounted exact queries (instrumentation) ---------------------------

    def objective(self, x: Vector) -> float:
        """Full objective, outside the evaluation accounting."""
        return self._batch_value(ALL_ROWS, x)

    def full_gradient_exact(self, x: Vector) -> Vector:
        """Full gradient, outside the evaluation accounting."""
        return self._batch_gradient(ALL_ROWS, x)


class QuadraticSumProblem(FiniteSumProblem):
    """``phi_i(x) = 0.5 x^T H_i x - b_i^T x`` with SPD mean Hessian (test/demo).

    ``hessians`` has shape ``(N, n, n)`` and ``rhs`` shape ``(N, n)``.
    """

    def __init__(self, hessians: Sequence[np.ndarray], rhs: Sequence[Vector]):
        self.hessians = np.asarray(hessians, dtype=np.float64)
        self.rhs = np.asarray(rhs, dtype=np.float64)
        if len(self.hessians) != len(self.rhs):
            raise ValueError("need one rhs per Hessian")
        L = np.linalg.eigvalsh(self.hessians).max()
        super().__init__(len(self.hessians), self.rhs.shape[1],
                         grad_lipschitz=float(L))

    def _batch_value(self, idx, x):
        hx = self.hessians[idx] @ x
        return float(np.mean(0.5 * (hx @ x) - self.rhs[idx] @ x))

    def _component_gradients(self, idx, x):
        return self.hessians[idx] @ x - self.rhs[idx]

    def _batch_gradient(self, idx, x):
        return self._component_gradients(idx, x).mean(axis=0)

    def _batch_hvp(self, idx, x, v):
        return (self.hessians[idx] @ v).mean(axis=0)

    def _batch_hessian(self, idx, x):
        return self.hessians[idx].mean(axis=0)


# -- mini-batch plumbing ------------------------------------------------------


@dataclass
class BatchPartition:
    """Disjoint index batches covering ``0..N-1``, iterated in order."""

    batches: list

    def __post_init__(self):
        sizes = [len(b) for b in self.batches]
        if max(sizes) - min(sizes) > 1:
            raise ValueError("batch sizes must differ by at most 1")
        all_idx = np.concatenate(self.batches)
        if np.unique(all_idx).size != all_idx.size:
            raise ValueError("batches must be disjoint")

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
        self.table = problem._component_gradients(ALL_ROWS, x0)
        problem.grad_evals += problem.N
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
