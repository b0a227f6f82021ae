"""Golden digests of the experiments' outputs.

Each case runs one small experiment and hashes what it writes, minus the
solver-time columns (``time_s`` in traces, ``mean_time_s`` in iteration
aggregates) and the manifest's ``problem.path`` line.  Each CSV is hashed
twice: once without the objective-value columns (``f_hat``,
``true_error``, ``mean_error``, ``ci95_half``), which pins the iterates,
evaluation order and step lengths, and once over those columns alone,
stored under ``<file>#values``.  ``repr(f_star)`` is kept as well.  A change
that is meant to leave the outputs alone must leave ``tests/golden.json``
unchanged; a change to how objective values are computed in floating
point may move the ``#values`` digests and ``f_star`` while every iterate
digest stays put.

A change that moves iterates on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and lists in CHANGES.md which digests moved and by how much.  The same
script with ``--check`` recomputes every case as the test does (the pinned
ones in a child process) and exits non-zero, naming each ``case/file``
whose digest differs from the file.  The
finite-sum cases are the fig3-synthetic preset at reps 2 and 2 epochs (grid
search included, one worker) and a small sparse LIBSVM file that runs
``lsos_fs``, ``saga_ls`` and ``lsos_bfgs``; both SAGA methods run the
logistic model's loss-split table, its only one (the spec still names it
for ``saga_ls`` through the ``saga_storage`` key, which sets nothing).
Neither case depends on the BLAS thread count.  The noisy-oracle cases are the
fig1-small preset at reps 2 and fig2-small at reps 2 and 40 iterations.
The dense fig1 solves change in the last bits with the BLAS thread count,
so the noisy cases run in a child process with one BLAS thread.  Every
case also depends on the SIMD code numpy dispatches for float64 ``exp``
and ``log1p`` (see ``np.show_runtime()``): the logistic kernels and the
synthetic objective's ``exp`` term both use it.  With the AVX-512 kernels
disabled through ``NPY_DISABLE_CPU_FEATURES``, 55 digests moved in all 4
cases, fig1-small and fig2-small trace digests included, and no
``f_star`` moved.  So the digests hold for one CPU family and numpy build.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from stochnewton import harness
from stochnewton.core import RngStream
from stochnewton.harness import ExperimentSpec, build_problem, run_experiment
from stochnewton.logreg import Dataset

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"
TIME_COLUMNS = {"time_s", "mean_time_s"}
VALUE_COLUMNS = {"f_hat", "true_error", "mean_error", "ci95_half"}
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _sparse_libsvm(path: Path) -> None:
    """A 400 x 40 dataset at 10% density, so the model keeps a CSR store."""
    rng = RngStream(7, 0)
    a = rng.standard_normal((400, 40)) * (rng.uniform(0.0, 1.0, (400, 40)) < 0.1)
    w = rng.standard_normal(40)
    labels = np.where(a @ w + 0.5 * rng.standard_normal(400) >= 0, 1.0, -1.0)
    with open(path, "w", encoding="utf-8") as fh:
        Dataset(sp.csr_matrix(a), labels).to_libsvm(fh)


def _fig3_spec(_tmp: Path) -> ExperimentSpec:
    return ExperimentSpec.from_preset("fig3-synthetic").override(**{
        "run.reps": "2", "run.max_epochs": "2", "run.workers": "1"})


def _libsvm_spec(tmp: Path) -> ExperimentSpec:
    path = tmp / "sparse.svm"
    _sparse_libsvm(path)
    return ExperimentSpec.from_mapping({
        "problem.kind": "libsvm", "problem.path": str(path),
        "run.solvers": "lsos_fs,saga_ls,lsos_bfgs", "run.reps": "2",
        "run.max_epochs": "2", "run.seed": "5",
        "solver.lsos_fs.batch_size": "100", "solver.lsos_fs.t_ini": "1.0",
        "solver.saga_ls.saga_storage": "loss_split",
        "solver.saga_ls.t_ini": "0.5", "solver.lsos_bfgs.t_ini": "0.5",
    })


def _fig1_spec(_tmp: Path) -> ExperimentSpec:
    return ExperimentSpec.from_preset("fig1-small").override(**{"run.reps": "2"})


def _fig2_spec(_tmp: Path) -> ExperimentSpec:
    return ExperimentSpec.from_preset("fig2-small").override(**{
        "run.reps": "2", "run.max_iters": "40"})


CASES = {"fig3-synthetic": _fig3_spec, "libsvm-sparse": _libsvm_spec,
         "fig1-small": _fig1_spec, "fig2-small": _fig2_spec}
PINNED = ("fig1-small", "fig2-small")  # run with one BLAS thread


def _digest_columns(rows: list, keep: list) -> str:
    kept = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(kept.encode()).hexdigest()


def _digest_csv(text: str) -> tuple[str, str]:
    """Digests of a CSV without its value columns, and of those alone."""
    rows = list(csv.reader(io.StringIO(text)))
    iterates = [i for i, name in enumerate(rows[0])
                if name not in TIME_COLUMNS | VALUE_COLUMNS]
    values = [i for i, name in enumerate(rows[0]) if name in VALUE_COLUMNS]
    return _digest_columns(rows, iterates), _digest_columns(rows, values)


def _digest_manifest(text: str) -> str:
    kept = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("problem.path"))
    return hashlib.sha256(kept.encode()).hexdigest()


def case_digests(name: str, tmp: Path) -> dict:
    """``{output file: digest}`` of case `name`, plus ``f_star``."""
    spec = CASES[name](tmp)
    out = tmp / "out"
    run_experiment(spec, out)
    digests = {}
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".txt":
            digests[path.name] = _digest_manifest(text)
        else:
            digests[path.name], digests[path.name + "#values"] = _digest_csv(text)
    digests["f_star"] = repr(build_problem(spec)[0].f_star)
    return digests


def _digests_here(names) -> dict:
    digests = {}
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = case_digests(name, Path(tmp))
    return digests


def pinned_digests(names) -> dict:
    """``{case: digests}`` of `names`, computed in a child process whose
    BLAS libraries start with one thread."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__, "--digest", *names],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def pinned():
    return pinned_digests(PINNED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path, request):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    digests = (request.getfixturevalue("pinned")[name] if name in PINNED
               else case_digests(name, tmp_path))
    assert digests == expected


def test_the_fig3_grid_scan_runs_12_of_22_pilots(tmp_path, monkeypatch):
    # the saving the stop rule makes on the fig3 case, and its selections
    run_jobs, pilots = harness._run_jobs, []

    def counted(problem, jobs, pool=None):
        pilots.extend(job for job in jobs if job[3])
        return run_jobs(problem, jobs, pool)

    monkeypatch.setattr(harness, "_run_jobs", counted)
    spec = _fig3_spec(tmp_path)
    problem, _ = build_problem(spec)
    assert len(harness.grid_pilots(spec)) == 22
    resolved, runs = {}, {}
    for workers in (1, 2):
        pilots.clear()
        spec = spec.override(**{"run.workers": str(workers)})
        with harness.worker_pool(spec, problem, 22) as pool:
            resolved[workers] = harness.resolve_grid_searches(spec, problem, pool)
        runs[workers] = len(pilots)
    assert runs[1] == 12 and runs[2] <= 14
    for name in ("lsos_bfgs", "saga_ls"):
        assert resolved[1].get(f"solver.{name}.t_ini") == 0.05
    assert resolved[1] == resolved[2].override(**{"run.workers": "1"})


def all_digests() -> dict:
    """Every case's digests, the pinned cases computed as the test does."""
    digests = _digests_here(sorted(set(CASES) - set(PINNED)))
    digests.update(pinned_digests(PINNED))
    return digests


def differences(expected: dict, got: dict) -> list:
    """``case/file`` of each digest that differs or is in only one side."""
    return [f"{case}/{key}" for case in sorted(expected.keys() | got.keys())
            for key in sorted(expected.get(case, {}).keys() | got.get(case, {}).keys())
            if expected.get(case, {}).get(key) != got.get(case, {}).get(key)]


def test_differences_name_each_moved_digest():
    expected = {"a": {"x.csv": "1", "f_star": "0.5"}, "b": {"y.csv": "2"}}
    got = {"a": {"x.csv": "1", "f_star": "0.6"}, "c": {"z.csv": "3"}}
    assert differences(expected, expected) == []
    assert differences(expected, got) == ["a/f_star", "b/y.csv", "c/z.csv"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        print(json.dumps(_digests_here(sys.argv[2:])))
    elif sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
    elif sys.argv[1:] == ["--check"]:
        moved = differences(json.loads(GOLDEN.read_text(encoding="utf-8")),
                            all_digests())
        print("\n".join(f"differs: {name}" for name in moved)
              or f"all {len(CASES)} cases match {GOLDEN.name}")
        sys.exit(1 if moved else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write | --check")
