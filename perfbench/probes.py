"""Outside-in probes: phase timing and per-run records, without tracing.

The library is not modified.  Instead a few names that
``harness.run_experiment`` looks up at call time are replaced for the
duration of one experiment:

* ``build_problem`` and ``resolve_grid_searches`` bound the set-up and pilot
  phases; the first ``aggregate`` call ends the replication phase and the
  first ``write_trace_csv`` call starts the output phase;
* ``run_solver`` / ``run_fs_solver`` keep each run's stop reason,
  iterations, ``k_tau`` and evaluation counts.  Finite-sum counters live on
  the shared problem and are cumulative (pilots included), so the record
  holds the per-run difference.  The record rides on the returned trace so
  it survives the trip back from pool workers (forked, so they inherit these
  replacements).

Each wrapper runs once per phase or per run, never per iteration, so these
probes stay on in the untraced measurements.
"""

from __future__ import annotations

import os
import resource
import time

from stochnewton import harness

RECORD_ATTR = "bench_run"


class Patch:
    """Replace attributes of modules or classes; :meth:`restore` undoes it."""

    def __init__(self):
        self._saved = []
        self.missing = []

    def wrap(self, owner, name, make_wrapper):
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        own = vars(owner)
        self._saved.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, make_wrapper(original))

    def restore(self):
        for owner, name, had_own, old in reversed(self._saved):
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._saved.clear()


def _eval_counts(subject):
    """(f, g, hvp) counters of a noisy oracle or a finite-sum problem."""
    counts = getattr(subject, "counts", None)
    if counts is not None:
        c = counts()
        return (c.f_evals, c.g_evals, c.hvp_evals)
    return (subject.value_evals, subject.grad_evals, subject.hvp_evals)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PhaseClock:
    """Phase boundaries of one ``run_experiment`` call, plus run records."""

    def __init__(self):
        self.pid = os.getpid()
        self.marks = {}
        self.in_pilots = False
        self.records = []  # every run made in this process

    def _mark(self, key):
        if os.getpid() == self.pid:
            self.marks.setdefault(key, time.perf_counter())

    def install(self, patch: Patch) -> None:
        clock = self

        def bracket(first, last, pilots=False):
            def make(fn):
                def wrapper(*args, **kwargs):
                    clock._mark(first)
                    clock.in_pilots = pilots
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        clock.in_pilots = False
                        clock._mark(last)
                return wrapper
            return make

        def first_call(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    clock._mark(key)
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def recorded(layer):
            def make(fn):
                def wrapper(subject, *args, **kwargs):
                    before = _eval_counts(subject)
                    result = fn(subject, *args, **kwargs)
                    after = _eval_counts(subject)
                    record = {
                        "layer": layer,
                        "stop": result.stop_reason,
                        "iters": result.iterations,
                        "k_tau": result.k_tau,
                        "evals": tuple(a - b for a, b in zip(after, before)),
                        "pilot": clock.in_pilots,
                        "pid": os.getpid(),
                        "rss_kb": peak_rss_kb(),
                    }
                    clock.records.append(record)
                    setattr(result.trace, RECORD_ATTR, record)
                    return result
                return wrapper
            return make

        patch.wrap(harness, "build_problem", bracket("setup0", "setup1"))
        patch.wrap(harness, "resolve_grid_searches",
                   bracket("pilots0", "pilots1", pilots=True))
        patch.wrap(harness, "aggregate", first_call("agg0"))
        patch.wrap(harness, "write_trace_csv", first_call("out0"))
        patch.wrap(harness, "run_solver", recorded("solvers"))
        patch.wrap(harness, "run_fs_solver", recorded("fs_solvers"))

    def phases(self, t0: float, t1: float) -> dict:
        m = self.marks
        return {
            "wall_s": t1 - t0,
            "setup_s": m["setup1"] - m["setup0"],
            "pilot_s": m["pilots1"] - m["pilots0"],
            "reps_s": m["agg0"] - m["pilots1"],
            "output_s": t1 - m["out0"],
        }
