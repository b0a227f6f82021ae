"""Span tracing of the library's layers, installed from outside.

A span is ``(name, start, end, parent)``; the parent is the span that was
open when the call began.  Span names start with the layer (the module that
defines the callable), so a layer's self time is the sum over its spans of
duration minus the time covered by their child spans.

Functions are replaced where their callers look them up (``harness`` and the
solver modules import them by name); methods are replaced on the class.
Spans stay in memory and are reduced to per-layer metrics after the
experiment.  Per-call wrapping costs about a microsecond, which is why
end-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from stochnewton import (finitesum, fs_solvers, harness, linalg, logreg,
                         slbfgs, solvers, steplen, synthetic)
from probes import Patch

LAYERS = ("harness", "solvers", "fs_solvers", "synthetic", "logreg",
          "finitesum", "linalg", "slbfgs", "steplen", "core")

# (caller module, attribute) -> span name
FUNCTIONS = [
    (harness, "build_problem", "harness.build_problem"),
    (harness, "resolve_grid_searches", "harness.resolve_grid_searches"),
    (harness, "run_replication", "harness.run_replication"),
    (harness, "aggregate", "harness.aggregate"),
    (harness, "write_manifest", "harness.write_manifest"),
    (harness, "run_solver", "solvers.run_solver"),
    (harness, "run_fs_solver", "fs_solvers.run_fs_solver"),
    (harness, "write_trace_csv", "core.write_trace_csv"),
    (harness, "generate_problem", "synthetic.generate_problem"),
    (harness, "exact_solution", "synthetic.exact_solution"),
    (harness, "generate_synthetic_classification",
     "logreg.generate_synthetic_classification"),
    (harness, "parse_libsvm", "logreg.parse_libsvm"),
    (solvers, "solve_cg", "linalg.solve_cg"),
    (solvers, "solve_direct", "linalg.solve_direct"),
    (solvers, "backtrack", "steplen.backtrack"),
    (solvers, "switch_check", "steplen.switch_check"),
    (fs_solvers, "solve_cg", "linalg.solve_cg"),
    (fs_solvers, "solve_direct", "linalg.solve_direct"),
    (fs_solvers, "backtrack", "steplen.backtrack"),
    (fs_solvers, "make_partition", "finitesum.make_partition"),
    (synthetic, "solve_cg", "linalg.solve_cg"),
    (synthetic, "solve_direct", "linalg.solve_direct"),
]

# (class, method); the span is named "<module>.<class>.<method>"
METHODS = [
    (synthetic.HouseholderOperator, "apply"),
    (synthetic.NoisyOracle, "sample"),
    (synthetic.NoisyOracle, "true_error"),
    (steplen.GainSchedule, "next_gain"),
    (finitesum.FiniteSumProblem, "objective"),
    (finitesum.SagaTable, "estimate"),
    (finitesum.SagaTable, "update"),
    (logreg.LogRegModel, "batch_value"),
    (logreg.LogRegModel, "batch_gradient"),
    (logreg.LogRegModel, "batch_hvp"),
    (logreg.LogRegModel, "batch_hessian"),
    (logreg.LogRegModel, "component_gradients"),
    (logreg.LogRegModel, "loss_factors"),
    (logreg.LogRegModel, "reference_optimum"),
    (logreg.LogRegSagaTable, "estimate"),
    (logreg.LogRegSagaTable, "update"),
    (slbfgs.LbfgsMemory, "apply_inverse_hessian"),
    (slbfgs.LbfgsMemory, "record_iterate"),
]


def method_span(cls, method: str) -> str:
    return f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{method}"


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.memories: dict[int, object] = {}

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrapper(self, name: str, after=None):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                i = len(starts)
                names.append(name)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                except linalg.NotPositiveDefiniteError:
                    tracer.count("linalg.spd_fallbacks")
                    raise
                finally:
                    ends[i] = clock()
                    stack.pop()
                if after is not None:
                    after(args, out)
                return out
            return traced
        return make

    def install(self, patch: Patch) -> None:
        after = {
            "linalg.solve_cg": lambda a, out: self.count("linalg.cg_iters", out.iters),
            "steplen.backtrack": self._after_backtrack,
            "logreg.parse_libsvm": lambda a, out: self.count(
                "logreg.parse_nnz", out.features.nnz),
            "harness.build_problem": lambda a, out: self._count_rows(out[0]),
            "core.write_trace_csv": lambda a, out: self.count(
                "core.trace_bytes", a[1].tell()),
            "slbfgs.LbfgsMemory.record_iterate": self._after_record,
        }
        for owner, attr, name in FUNCTIONS:
            patch.wrap(owner, attr, self.wrapper(name, after.get(name)))
        for cls, method in METHODS:
            name = method_span(cls, method)
            patch.wrap(cls, method, self.wrapper(name, after.get(name)))

    def _after_backtrack(self, args, out):
        self.count("steplen.trials", out.n_trials)
        self.count("steplen.accepted", int(out.accepted))

    def _after_record(self, args, out):
        memory = args[0]
        self.memories[id(memory)] = memory
        self.count("slbfgs.pairs_inserted", int(bool(out)))

    def _count_rows(self, problem):
        """Count rows sliced out of a CSR feature matrix (``features[idx]``)."""
        dataset = getattr(problem, "dataset", None)
        features = getattr(dataset, "features", None)
        if type(features) is not sp.csr_matrix:
            return
        tracer = self

        class CountingCsr(sp.csr_matrix):
            def __getitem__(self, key):
                out = sp.csr_matrix.__getitem__(self, key)
                if isinstance(out, sp.csr_matrix):
                    out.__class__ = sp.csr_matrix
                    tracer.count("logreg.rows_sliced", out.shape[0])
                return out

        features.__class__ = CountingCsr

    # -- reduction ------------------------------------------------------------

    def reduce(self):
        """Per span name: ``(calls, total_s, self_s)``; per layer likewise."""
        n = len(self.names)
        if self.stack != [-1]:
            raise RuntimeError("spans still open at reduction time")
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        layer_of = [s.split(".", 1)[0] for s in self.names]
        by_name: dict[str, list] = {}
        by_layer: dict[str, list] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for i, name in enumerate(self.names):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += own[i]
            layer = by_layer.setdefault(layer_of[i], [0, 0.0, 0.0])
            layer[0] += 1
            layer[2] += own[i]
            p = parent[i]
            if p < 0 or layer_of[p] != layer_of[i]:
                layer[1] += dur[i]  # outermost span of this layer
        return by_name, by_layer


NOISY_SOLVERS = ("lsos", "lsos_inexact", "sgd_ls")
FS_SOLVERS = ("lsos_bfgs", "saga_ls", "lsos_fs")


def _per_call_us(total_s: float, calls: int) -> float:
    return 1e6 * total_s / calls if calls else 0.0


def layer_metrics(tracer: Tracer, sample: dict) -> dict:
    """The per-layer metrics of one traced experiment.

    `sample` is the experiment's outcome from ``run.run_once``: its phases,
    the summary of the reported runs and, under ``records``, every run
    made, pilots included.
    """
    by_name, by_layer = tracer.reduce()
    records = sample["records"]

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    count = tracer.counts.get
    m = {
        "harness.setup_s": sample["setup_s"],
        "harness.pilot_s": sample["pilot_s"],
        "harness.pilot_runs": sum(r["pilot"] for r in records),
        "harness.reps_s": sample["reps_s"],
        "harness.output_s": sample["output_s"],
        "harness.instr_s": sample["reps_s"] - sample["solver_s"],
    }
    hh = "synthetic.HouseholderOperator.apply"
    m["synthetic.householder_apply_calls"] = calls(hh)
    m["synthetic.householder_apply_us"] = _per_call_us(total(hh), calls(hh))
    m["synthetic.sample_self_s"] = own("synthetic.NoisyOracle.sample")
    m["synthetic.true_error_s"] = total("synthetic.NoisyOracle.true_error")

    m["linalg.cg_solves"] = calls("linalg.solve_cg")
    m["linalg.cg_iters"] = count("linalg.cg_iters", 0)
    m["linalg.cg_self_s"] = own("linalg.solve_cg")
    m["linalg.direct_solves"] = calls("linalg.solve_direct")
    m["linalg.direct_s"] = total("linalg.solve_direct")
    m["linalg.spd_fallbacks"] = count("linalg.spd_fallbacks", 0)

    m["logreg.parse_s"] = total("logreg.parse_libsvm")
    m["logreg.parse_nnz"] = count("logreg.parse_nnz", 0)
    m["logreg.reference_optimum_s"] = total("logreg.LogRegModel.reference_optimum")
    for op in ("batch_value", "component_gradients", "batch_hvp", "batch_hessian"):
        name = f"logreg.LogRegModel.{op}"
        m[f"logreg.{op}_us"] = _per_call_us(total(name), calls(name))
    m["logreg.rows_sliced"] = count("logreg.rows_sliced", 0)

    for op in ("estimate", "update"):
        names = (f"finitesum.SagaTable.{op}", f"logreg.LogRegSagaTable.{op}")
        m[f"finitesum.saga_{op}_us"] = _per_call_us(
            sum(own(n) for n in names), sum(calls(n) for n in names))
    objective = "finitesum.FiniteSumProblem.objective"
    m["finitesum.objective_calls"] = calls(objective)
    m["finitesum.objective_s"] = total(objective)
    for key, value in zip(("value", "grad", "hvp"), sample["fs_evals"]):
        m[f"finitesum.{key}_evals"] = value

    two_loop = "slbfgs.LbfgsMemory.apply_inverse_hessian"
    m["slbfgs.two_loop_calls"] = calls(two_loop)
    m["slbfgs.two_loop_us"] = _per_call_us(total(two_loop), calls(two_loop))
    m["slbfgs.pairs_inserted"] = count("slbfgs.pairs_inserted", 0)
    m["slbfgs.pairs_rejected"] = sum(mem.pairs_rejected
                                     for mem in tracer.memories.values())

    searches = calls("steplen.backtrack")
    m["steplen.backtrack_calls"] = searches
    m["steplen.trials"] = count("steplen.trials", 0)
    m["steplen.accept_ratio"] = (count("steplen.accepted", 0) / searches
                                 if searches else 0.0)
    m["steplen.switches"] = sum(r["k_tau"] is not None for r in records)

    for layer, solver_names in (("solvers", NOISY_SOLVERS),
                                ("fs_solvers", FS_SOLVERS)):
        m[f"{layer}.iters"] = sum(r["iters"] for r in records
                                  if r["layer"] == layer)
        for solver in solver_names:
            m[f"{layer}.final_log10_err.{solver}"] = \
                sample["log10_err"].get(solver, 0.0)

    m["core.trace_write_s"] = total("core.write_trace_csv")
    m["core.trace_bytes"] = count("core.trace_bytes", 0)

    for layer in LAYERS:
        n_calls, total_s, self_s = by_layer[layer]
        m[f"{layer}.calls"] = n_calls
        m[f"{layer}.total_s"] = total_s
        m[f"{layer}.self_s"] = self_s
    m["bench.spans"] = len(tracer.names)
    return m
