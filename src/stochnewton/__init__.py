"""Stochastic second-order optimization under noisy oracles.

Solvers for strongly convex problems where objective, gradient and Hessian
are only available with noise: Newton-type methods with pre-defined gain
sequences or nonmonotone line searches, inexact (CG-solved) Newton systems
with a relative residual rule, and finite-sum specializations combining
mini-batch SAGA gradient estimates with averaged-iterate stochastic L-BFGS.
A seeded benchmark harness reproduces the experiment protocol at desk scale.
"""

__version__ = "0.2.0"

from .core import (EvalCounts, OracleSample, RngStream, RunTrace, TraceRecord,
                   read_trace_csv, write_trace_csv)
from .finitesum import (Batch, FiniteSumProblem, SagaTable, default_batch_size,
                        make_partition)
from .fs_solvers import run_fs_solver
from .harness import (AggregateCurve, ExperimentSpec, aggregate,
                      grid_search_step, run_experiment)
from .linalg import (CgResult, NotPositiveDefiniteError, SpdOperator,
                     solve_cg, solve_direct)
from .logreg import (Dataset, LogRegModel, LogRegSagaTable,
                     generate_synthetic_classification, parse_libsvm)
from .slbfgs import LbfgsMemory
from .solvers import (DeltaSchedule, GainParams, SolverConfig, SolverResult,
                      run_solver)
from .steplen import (BacktrackResult, GainSchedule, LineSearchConfig,
                      backtrack, switch_check)
from .synthetic import (ConvexRandomProblem, HouseholderOperator, NoisyOracle,
                        exact_solution, generate_problem)
