"""Finite-sum objectives: mini-batch machinery and variance-reduced estimators.

The objective is the sample mean ``phi(x) = (1/N) sum_i phi_i(x)`` of ``N``
component functions.  The mini-batch is the only oracle granularity:
concrete problems subclass :class:`FiniteSumProblem`, slice their data to a
batch and implement the private batch methods on the slice; the base class
validates batches and keeps the component-evaluation accounting (the
accounting is what the SAGA cost contract is asserted against).

Two gradient estimators are provided:

* plain subsampling, ``(1/|K|) sum_{i in K} grad phi_i(x)``, and
* a mini-batch SAGA estimator that keeps one stored gradient per component
  and combines a fresh mini-batch correction with the table average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EvalCounts, RngStream, Vector

ALL_ROWS = slice(None)
"""``idx`` of :meth:`FiniteSumProblem._slice` for "every component".

Only the uncounted all-rows queries pass it, so a subclass can read its
whole data without an index copy.  A counted batch is always an index
array, even one of size ``N``, which may repeat components."""


@dataclass(frozen=True, eq=False)
class Batch:
    """One validated mini-batch and the problem's data sliced to it.

    Made by :meth:`FiniteSumProblem.take`; every counted call of one
    iteration shares it, so the data is sliced once per iteration.
    """

    idx: np.ndarray  # int64 component indices, repeats kept
    data: tuple      # the problem's ``_slice(idx)``

    @property
    def size(self) -> int:
        """The number of components, which is what the counters add."""
        return self.idx.size


class FiniteSumProblem:
    """Base class for ``phi = (1/N) sum phi_i``, evaluated by mini-batches.

    Subclasses implement ``_slice(idx)``, the tuple of their data arrays cut
    to an index array or :data:`ALL_ROWS` ``idx``, and on such a ``part``
    the batch means ``_batch_value(part, x)``, ``_batch_gradient(part, x)``,
    ``_batch_hvp(part, x, v)`` and ``_batch_hessian(part, x)`` (dense), and
    the stacked rows ``_component_gradients(part, x)``.

    :meth:`take` validates an index batch and slices it once into a
    :class:`Batch`.  The public methods accept a ``Batch`` or an index
    array, which they pass through ``take``, and count one evaluation per
    component in the batch.
    """

    def __init__(self, N: int, n: int):
        if N < 1 or n < 1:
            raise ValueError("N and n must be >= 1")
        self.N = N
        self.n = n
        self.value_evals = 0
        self.grad_evals = 0
        self.hvp_evals = 0

    # -- public, counted oracle ----------------------------------------------

    def take(self, idx) -> Batch:
        """The validated batch `idx` with its data sliced; a ``Batch`` as is."""
        if isinstance(idx, Batch):
            return idx
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("batch must be non-empty")
        if idx.min() < 0 or idx.max() >= self.N:
            raise ValueError(f"batch indices out of range 0..{self.N - 1}")
        return Batch(idx, self._slice(idx))

    def batch_value(self, batch, x: Vector) -> float:
        batch = self.take(batch)
        self.value_evals += batch.size
        return self._batch_value(batch.data, x)

    def batch_gradient(self, batch, x: Vector) -> Vector:
        batch = self.take(batch)
        self.grad_evals += batch.size
        return self._batch_gradient(batch.data, x)

    def batch_hvp(self, batch, x: Vector, v: Vector) -> Vector:
        batch = self.take(batch)
        self.hvp_evals += batch.size
        return self._batch_hvp(batch.data, x, v)

    def component_gradients(self, batch, x: Vector) -> np.ndarray:
        """Stacked per-component gradients, shape ``(batch size, n)``."""
        batch = self.take(batch)
        self.grad_evals += batch.size
        return self._component_gradients(batch.data, x)

    def batch_hessian(self, batch, x: Vector) -> np.ndarray:
        batch = self.take(batch)
        self.hvp_evals += batch.size
        return self._batch_hessian(batch.data, x)

    def counts(self) -> EvalCounts:
        """The cumulative component-evaluation counters."""
        return EvalCounts(self.value_evals, self.grad_evals, self.hvp_evals)

    # -- uncounted exact queries (instrumentation) ---------------------------

    def objective(self, x: Vector) -> float:
        """Full objective, outside the evaluation accounting."""
        return self._batch_value(self._slice(ALL_ROWS), x)

    def objectives(self, xs) -> np.ndarray:
        """Full objective at each row of `xs`, shape ``(B, n)``, uncounted.

        Equal to :meth:`objective` row by row; a subclass may override it
        with one pass over its data for the whole block.
        """
        return np.array([self.objective(x) for x in xs])

    def full_gradient_exact(self, x: Vector) -> Vector:
        """Full gradient, outside the evaluation accounting."""
        return self._batch_gradient(self._slice(ALL_ROWS), x)


class QuadraticSumProblem(FiniteSumProblem):
    """``phi_i(x) = 0.5 x^T H_i x - b_i^T x`` with SPD mean Hessian (test/demo).

    ``hessians`` has shape ``(N, n, n)`` and ``rhs`` shape ``(N, n)``.
    """

    def __init__(self, hessians: Sequence[np.ndarray], rhs: Sequence[Vector]):
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


# -- mini-batch plumbing ------------------------------------------------------


def make_partition(N: int, n_b: int, rng: RngStream) -> list:
    """Random equi-partition of ``{0..N-1}`` into ``n_b`` sorted batches (sizes +-1)."""
    if not (1 <= n_b <= N):
        raise ValueError(f"need 1 <= n_b <= N, got n_b={n_b}, N={N}")
    perm = rng.permutation(N)
    return [np.sort(b) for b in np.array_split(perm, n_b)]


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
        self.table = problem._component_gradients(problem._slice(ALL_ROWS), x0)
        problem.grad_evals += problem.N
        self.running_sum = self.table.sum(axis=0)

    def estimate(self, x: Vector, batch) -> Vector:
        batch = self.problem.take(batch)
        fresh = self.problem.component_gradients(batch, x)
        corr = fresh.mean(axis=0) - self.table[batch.idx].mean(axis=0)
        return corr + self.running_sum / self.problem.N

    def update(self, batch, x_new: Vector) -> None:
        batch = self.problem.take(batch)
        fresh = self.problem.component_gradients(batch, x_new)
        self.running_sum = self.running_sum + (fresh.sum(axis=0)
                                               - self.table[batch.idx].sum(axis=0))
        self.table[batch.idx] = fresh

    def recompute_sum(self) -> Vector:
        return self.table.sum(axis=0)
