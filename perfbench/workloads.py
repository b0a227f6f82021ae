"""The benchmark's workloads: experiment specs and their generated inputs.

Each workload is one harness experiment, run as a closed loop (the next
experiment starts when the previous one has finished).  Everything random
is derived from the workload seed: ``run.seed`` for the harness streams and,
for ``fs-sparse``, the generated LIBSVM file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import stochnewton
from stochnewton.harness import ExperimentSpec
from stochnewton.logreg import Dataset


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None
    overrides: dict
    # the same workload shrunk for the self-test
    tiny: dict = field(default_factory=dict)
    sparse_data: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="noisy-cg",
            preset="fig2-small",
            overrides={"run.reps": 3, "run.workers": 1},
            tiny={"problem.n": 200, "run.max_iters": 20},
        ),
        Workload(
            name="fs-grid",
            preset="fig3-synthetic",
            overrides={"run.reps": 2, "run.max_epochs": 2, "run.workers": 2},
            tiny={"problem.N": 300, "run.max_epochs": 1,
                  "grid.candidates": "1,1e-1,1e-2"},
        ),
        Workload(
            name="fs-sparse",
            preset=None,
            overrides={
                "problem.kind": "libsvm",
                "run.solvers": "lsos_fs,saga_ls",
                "run.reps": 2, "run.max_epochs": 3, "run.workers": 1,
                # subsampled Newton needs a batch well above the 200
                # features; at 400 the batch Hessian overfits and the
                # true error grows
                "solver.lsos_fs.batch_size": 2000,
                "solver.saga_ls.saga_storage": "loss_split",
                "solver.saga_ls.t_ini": 1.0,
            },
            tiny={"run.max_epochs": 1, "solver.lsos_fs.batch_size": 400},
            sparse_data=True,
        ),
    )
}

SPARSE_SHAPE = (20000, 200)
SPARSE_DENSITY = 0.05
TINY_SPARSE_SHAPE = (1500, 40)


def sparse_dataset(seed: int, shape=SPARSE_SHAPE,
                   density: float = SPARSE_DENSITY) -> Dataset:
    """Sparse two-class data with label noise, deterministic in `seed`.

    Rows carry about ``density * features`` standard-normal nonzeros; labels
    are the sign of a random linear score plus noise at half its spread.
    """
    rng = np.random.default_rng([seed, 0x5A5E])
    rows, cols = shape
    features = sp.random(rows, cols, density=density, format="csr",
                         random_state=rng, data_rvs=rng.standard_normal)
    score = features @ rng.standard_normal(cols)
    noisy = score + 0.5 * np.std(score) * rng.standard_normal(rows)
    return Dataset(features, np.where(noisy >= 0.0, 1.0, -1.0))


def write_sparse(path: str, seed: int, tiny: bool) -> dict:
    """Write the ``fs-sparse`` LIBSVM file; return its nonzeros and bytes."""
    dataset = sparse_dataset(seed, TINY_SPARSE_SHAPE if tiny else SPARSE_SHAPE)
    with open(path, "w", encoding="utf-8") as fh:
        dataset.to_libsvm(fh)
    return {"nnz": int(dataset.features.nnz),
            "file_bytes": os.path.getsize(path)}


def prepare(workload: Workload, seed: int, work_dir: str, tiny: bool):
    """Write the workload's inputs under `work_dir`; return ``(spec, info)``.

    Input generation happens here, before any timing starts.  The LIBSVM
    file is written by a child process, so the benchmark process's peak RSS
    covers only the library's own work, not the generator's.
    """
    mapping = dict(workload.overrides)
    mapping["run.seed"] = seed
    if tiny:
        mapping.update(workload.tiny)
        mapping["run.reps"] = 1
    info = {}
    if workload.sparse_data:
        path = os.path.join(work_dir, "data.libsvm")
        src = os.path.dirname(os.path.dirname(stochnewton.__file__))
        child = subprocess.run(
            [sys.executable, __file__, "--write", path, "--seed", str(seed)]
            + (["--tiny"] if tiny else []),
            stdout=subprocess.PIPE, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        info = json.loads(child.stdout)
        mapping["problem.path"] = path
    if workload.preset is None:
        spec = ExperimentSpec.from_mapping(mapping)
    else:
        spec = ExperimentSpec.from_preset(workload.preset).override(**mapping)
    return spec, info


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=write_sparse.__doc__)
    parser.add_argument("--write", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    print(json.dumps(write_sparse(args.write, args.seed, args.tiny)))
