"""Line-search solvers for finite-sum objectives.

Three methods run the one LSOS loop of :mod:`stochnewton.solvers`, set up
by its :class:`SolverConfig`.  All line-search the *sampled* objective
``f_K`` over the mini-batch that produced the gradient estimate (the Armijo
test needs a fixed function within an iteration).  Each epoch's batches,
used in order, are a fresh random partition or fresh uniform draws (no
index repeats within a batch).  The search never switches off: an
exhausted search takes its smallest trial step, with one warning per run.

``lsos_fs``
    Subsampled gradient and subsampled-Hessian Newton direction with the
    relative residual rule ``||B d + g|| <= delta_k ||g||`` (``delta_k = 0``
    solves directly).
``lsos_bfgs``
    Mini-batch SAGA gradient estimate, direction ``-H_k g`` from the
    averaged-iterate L-BFGS memory; gradient direction during warmup while
    the memory is empty.
``saga_ls``
    The first-order baseline: SAGA estimate, direction ``-g``, same search.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

import numpy as np

from .core import Vector, as_vector
from .finitesum import (FiniteSumProblem, SagaTable, default_batch_size,
                        make_partition)
# solve_cg, solve_direct and backtrack go unused here; perfbench/tracer.py patches them
from .linalg import SpdOperator, solve_cg, solve_direct  # noqa: F401
from .logreg import LogRegModel, LogRegSagaTable
from .slbfgs import LbfgsMemory
from .solvers import (FS_METHODS, METHOD_LSOS_BFGS, METHOD_LSOS_FS,
                      SCHEME_PARTITION, STORAGE_LOSS_SPLIT, SolverConfig,
                      SolverResult, _lsos_loop, _newton_direction)
from .steplen import backtrack  # noqa: F401


def run_fs_solver(problem: FiniteSumProblem, cfg: SolverConfig, x0: Vector,
                  rng, f_star: Optional[float] = None, *,
                  final_error_only: bool = False) -> SolverResult:
    """Run one finite-sum method of :data:`FS_METHODS` from ``x0``.

    ``rng`` owns the batch draws; ``f_star``, when known, gives the trace
    its true errors, from :meth:`FiniteSumProblem.objectives` over blocks
    of :func:`_error_block` iterates (``final_error_only``: see
    :func:`_lsos_loop`).
    """
    if cfg.method not in FS_METHODS:
        raise ValueError(f"{cfg.method!r} is not a finite-sum method")
    x = as_vector(x0, problem.n).copy()
    batch_size = min(cfg.batch_size or default_batch_size(problem.N), problem.N)
    hess_batch_size = cfg.hess_batch_size or default_batch_size(problem.N)
    batch_rng = rng.child(0)
    hess_rng = rng.child(1)

    since = problem.counts()  # the SAGA table's pass counts toward the run
    tic = time.perf_counter()
    table = (_make_saga_table(problem, cfg, x) if cfg.method != METHOD_LSOS_FS
             else None)
    memory = LbfgsMemory(cfg.m, cfg.l) if cfg.method == METHOD_LSOS_BFGS else None
    setup_s = time.perf_counter() - tic

    def gradient(x, batch):
        return problem.batch_gradient(batch, x)

    def newton_step(x, batch, g, k):
        b = SpdOperator.from_dense(problem.batch_hessian(batch, x))
        return _newton_direction(b, g, cfg, k)

    def lbfgs_step(x, batch, g, k):
        return -memory.apply_inverse_hessian(g), None, None, False

    def hvp_fresh_batch(w, s):
        t_j = np.sort(hess_rng.choice(problem.N, size=min(hess_batch_size, problem.N)))
        return problem.batch_hvp(t_j, w, s)

    def update(x_next, batch):
        table.update(batch, x_next)
        if memory is not None:
            memory.record_iterate(x_next, hvp_fresh_batch)

    def true_errors(xs):
        return problem.objectives(xs) - f_star

    if table is None:
        estimate, direction, after_step = gradient, newton_step, None
    else:
        estimate, after_step = table.estimate, update
        direction = lbfgs_step if memory is not None else None
    # each iteration's calls share one validated, pre-sliced batch view
    batches = map(problem.take, _epoch_batches(problem.N, batch_size, cfg,
                                               batch_rng))
    return _lsos_loop(
        cfg, x, batches,
        estimate=estimate, direction=direction,
        objective=lambda x, batch: problem.batch_value(batch, x),
        after_step=after_step,
        true_errors=None if f_star is None else true_errors,
        counts=problem.counts, since=since, elapsed=setup_s,
        error_block=_error_block(problem.N), final_error_only=final_error_only)


def _error_block(N: int) -> int:
    """Iterates per true-error block over ``N`` components.

    A block's ``(B, N)`` buffer holds at most ``2**17`` values (1 MiB), and
    ``B <= 8``: at ``N = 20000`` the pass is fastest from ``B = 4`` on,
    while larger blocks only add transient memory in every pool worker.
    """
    return max(1, min(8, 2**17 // N))


def _epoch_batches(N: int, batch_size: int, cfg: SolverConfig, rng):
    """Mini-batches in order, epoch after epoch, until ``cfg.max_epochs``."""
    n_b = int(np.ceil(N / batch_size))
    epochs = itertools.count() if cfg.max_epochs is None else range(cfg.max_epochs)
    for _ in epochs:
        if cfg.batch_scheme == SCHEME_PARTITION:
            yield from make_partition(N, n_b, rng)
        else:
            for _ in range(n_b):
                yield np.sort(rng.choice(N, size=batch_size))


def _make_saga_table(problem, cfg, x0):
    if cfg.saga_storage == STORAGE_LOSS_SPLIT:
        if not isinstance(problem, LogRegModel):
            raise ValueError("loss_split storage requires a logistic model")
        return LogRegSagaTable(problem, x0)
    return SagaTable(problem, x0)
