"""Line-search solvers for finite-sum objectives.

Three methods run the one LSOS loop of :mod:`stochnewton.solvers`; all of
them line-search the *sampled* objective ``f_K`` over the same mini-batch
that produced the gradient estimate (the Armijo test needs a fixed function
within an iteration).  Batches come from a fresh random partition, or fresh
uniform draws, each epoch, used in order.  The search never switches off:
an exhausted search takes its smallest trial step, with one warning per run.

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
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Vector, as_vector
from .finitesum import (FiniteSumProblem, SagaTable, default_batch_size,
                        make_partition)
# solve_cg, solve_direct and backtrack go unused here; perfbench/tracer.py patches them
from .linalg import SpdOperator, solve_cg, solve_direct  # noqa: F401
from .logreg import LogRegModel, LogRegSagaTable
from .slbfgs import LbfgsMemory
from .solvers import DeltaSchedule, SolverResult, _lsos_loop, _newton_direction
from .steplen import LineSearchConfig, backtrack  # noqa: F401

METHOD_LSOS_FS = "lsos_fs"
METHOD_LSOS_BFGS = "lsos_bfgs"
METHOD_SAGA_LS = "saga_ls"
FS_METHODS = (METHOD_LSOS_FS, METHOD_LSOS_BFGS, METHOD_SAGA_LS)

SCHEME_PARTITION = "partition"
SCHEME_UNIFORM = "uniform"

STORAGE_DENSE = "dense"
STORAGE_LOSS_SPLIT = "loss_split"


@dataclass
class FsSolverConfig:
    method: str = METHOD_LSOS_BFGS
    # theta = 0.999 keeps the nonmonotone slack alive over whole epochs
    ls: LineSearchConfig = field(
        default_factory=lambda: LineSearchConfig(theta=0.999))
    delta: DeltaSchedule = field(default_factory=DeltaSchedule)
    batch_size: Optional[int] = None        # default ceil(sqrt(N))
    hess_batch_size: Optional[int] = None   # default ceil(sqrt(N))
    batch_scheme: Optional[str] = None      # partition for SAGA methods, else uniform
    m: int = 10
    l: int = 5
    saga_storage: str = STORAGE_DENSE
    cg_rel_floor: float = 1e-6
    cg_max_iters: Optional[int] = None
    max_epochs: Optional[int] = None
    max_iters: Optional[int] = None
    time_budget_s: float = math.inf
    grad_tol: Optional[float] = None

    def __post_init__(self):
        if self.method not in FS_METHODS:
            raise ValueError(f"unknown finite-sum method {self.method!r}")
        if self.batch_scheme is None:
            self.batch_scheme = (SCHEME_UNIFORM if self.method == METHOD_LSOS_FS
                                 else SCHEME_PARTITION)
        if self.batch_scheme not in (SCHEME_PARTITION, SCHEME_UNIFORM):
            raise ValueError(f"unknown batch scheme {self.batch_scheme!r}")
        if self.saga_storage not in (STORAGE_DENSE, STORAGE_LOSS_SPLIT):
            raise ValueError(f"unknown saga storage {self.saga_storage!r}")
        if self.max_epochs is None and self.max_iters is None \
                and not math.isfinite(self.time_budget_s):
            raise ValueError("need at least one of max_epochs/max_iters/time budget")
        if not (0.0 < self.cg_rel_floor < 1.0):
            raise ValueError("cg_rel_floor must lie in (0, 1)")


def run_fs_solver(problem: FiniteSumProblem, cfg: FsSolverConfig, x0: Vector,
                  rng, f_star: Optional[float] = None, *,
                  final_error_only: bool = False) -> SolverResult:
    """Run one finite-sum method of :data:`FS_METHODS` from ``x0``.

    ``rng`` owns the batch draws; ``f_star``, when known, gives the trace
    its true errors (``final_error_only``: see :func:`_lsos_loop`).
    """
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

    def true_error(x):
        return problem.objective(x) - f_star

    if table is None:
        estimate, direction, after_step = gradient, newton_step, None
    else:
        estimate, after_step = table.estimate, update
        direction = lbfgs_step if memory is not None else None
    return _lsos_loop(
        cfg, x, _epoch_batches(problem.N, batch_size, cfg, batch_rng),
        estimate=estimate, direction=direction,
        objective=lambda x, batch: problem.batch_value(batch, x),
        after_step=after_step,
        true_error=None if f_star is None else true_error,
        counts=problem.counts, since=since, elapsed=setup_s,
        final_error_only=final_error_only)


def _epoch_batches(N: int, batch_size: int, cfg: FsSolverConfig, rng):
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
