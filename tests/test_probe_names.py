"""The benchmark's probes find every library name they patch.

``perfbench/probes.py`` and ``perfbench/tracer.py`` wrap library callables
by name from outside.  A refactor that drops or renames one of them must
fail here, not turn every benchmark run into a run without a record.
"""

import sys
from pathlib import Path

from stochnewton import harness

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
