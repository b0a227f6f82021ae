"""The benchmark's probes find every library name they patch.

``perfbench/probes.py`` and ``perfbench/tracer.py`` wrap library callables
by name from outside.  A refactor that drops or renames one of them must
fail here, not turn every benchmark run into a run without a record.
"""

import sys
from pathlib import Path

from stochnewton import harness
from stochnewton.harness import ExperimentSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_phase_clock_and_tracer_find_every_probed_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from probes import Patch, PhaseClock
    from tracer import Tracer

    original = harness.run_solver
    patch = Patch()
    try:
        PhaseClock().install(patch)
        Tracer().install(patch)
        assert patch.missing == []
        assert harness.run_solver is not original
    finally:
        patch.restore()
        for name in ("probes", "tracer"):
            sys.modules.pop(name, None)
    assert harness.run_solver is original


def test_every_reported_trace_carries_its_run_record(monkeypatch):
    # one tiny grid experiment per solver family, run serially
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from probes import RECORD_ATTR, Patch, PhaseClock

    specs = [
        ExperimentSpec.from_mapping({
            "problem.kind": "synthetic", "problem.n": "10",
            "run.solvers": "lsos", "run.max_iters": "5", "run.reps": "2",
            "grid.candidates": "1,0.1", "solver.lsos.t_ini": "grid"}),
        ExperimentSpec.from_mapping({
            "problem.kind": "logistic_synthetic", "problem.N": "60",
            "problem.features": "4", "run.solvers": "saga_ls",
            "run.max_epochs": "1", "run.reps": "2",
            "grid.candidates": "1,0.1", "solver.saga_ls.t_ini": "grid"}),
    ]
    patch, clock = Patch(), PhaseClock()
    try:
        clock.install(patch)
        for spec in specs:
            result = harness.run_experiment(spec)
            for name, traces in result.traces.items():
                assert len(traces) == 2
                for trace in traces:
                    record = getattr(trace, RECORD_ATTR, None)
                    assert record is not None, f"{trace.run_id}: no run record"
                    assert isinstance(record["stop"], str) and record["stop"]
                    assert len(record["evals"]) == 3
                    assert record["evals"][1] > 0  # gradient evaluations
    finally:
        patch.restore()
        sys.modules.pop("probes", None)
    # each experiment ran two pilots, then its two reported runs
    assert [r["pilot"] for r in clock.records] == [True, True, False, False] * 2
