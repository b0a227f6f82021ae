"""stochnewton benchmark: end-to-end phase metrics and a traced per-layer view.

    python3 perfbench/run.py --workload noisy-cg --seed 5 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, table

One invocation runs one workload in this process: the same experiment
(same seed) again and again, one after the other, for ``--seconds`` seconds.
``--trace 0`` reports the end-to-end metrics of the untraced experiments
(timings as means or medians over the repeats, see the README).
``--trace 1`` alternates untraced and traced experiments at
``run.workers = 1`` and reports the per-layer metrics and the tracing
overhead.  Every repeat must reproduce the iterate columns of the
first (all trace CSV columns except ``time_s``) and end with a finite true
error below the starting one; any other outcome counts as a failed run.
The last line of standard output is the result as one JSON object; metric
names and units come from ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one compute thread per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_REPEATS = 2
# after each experiment, set up again for this share of its wall time
SETUP_SHARE = 0.2
ERR_UNIT = 1e-16  # final_log10_err is log10(error / 1e-16), see README


def _import_library():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    if not (SRC / "stochnewton" / "__init__.py").is_file():
        sys.exit(f"error: no stochnewton sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stochnewton
    if Path(stochnewton.__file__).resolve().parent != SRC / "stochnewton":
        sys.exit(f"error: imported stochnewton from {stochnewton.__file__}")


def benchmark_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


# -- one experiment --------------------------------------------------------------


def _iterate_digest(path: Path) -> str:
    """Hash of a trace CSV without its ``time_s`` column."""
    digest = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            digest.update(repr(row[:2] + row[3:]).encode())
    return digest.hexdigest()


def check_experiment(result, out_dir: Path, names, reps, reference: dict,
                     problems: list) -> dict:
    """Check the reported runs of one experiment and sum up their cost.

    `reference` maps ``(solver, rep)`` to the iterate digest of the first
    repeat; later repeats must match it.
    """
    from probes import RECORD_ATTR

    summary = {"attempted": 0, "failed": 0, "solver_s": 0.0,
               "evals": 0, "fs_evals": [0, 0, 0], "log10_err": {},
               "workers_rss_kb": {}}
    for name in names:
        finals = []
        for rep in range(reps):
            summary["attempted"] += 1
            trace = result.traces[name][rep]
            record = getattr(trace, RECORD_ATTR, None)
            first, last = trace.records[0], trace.records[-1]
            digest = _iterate_digest(out_dir / f"{name}_rep{rep:02d}.csv")
            expected = reference.setdefault((name, rep), digest)
            error = None
            if record is None:
                error = "no run record"
            elif record["stop"] == "diverged":
                error = "diverged"
            elif last.true_error is None or not math.isfinite(last.true_error):
                error = f"final true error {last.true_error}"
            elif not last.true_error < first.true_error:
                error = (f"no progress: error {first.true_error!r} -> "
                         f"{last.true_error!r}")
            elif digest != expected:
                error = "iterate columns differ from the first repeat"
            if error is not None:
                summary["failed"] += 1
                problems.append(f"{name} rep {rep}: {error}")
                continue
            finals.append(last.true_error)
            summary["solver_s"] += last.wall_time_s
            summary["evals"] += sum(record["evals"])
            if record["layer"] == "fs_solvers":
                summary["fs_evals"] = [a + b for a, b in
                                       zip(summary["fs_evals"], record["evals"])]
            if record["pid"] != os.getpid():
                rss = summary["workers_rss_kb"]
                rss[record["pid"]] = max(rss.get(record["pid"], 0), record["rss_kb"])
        if finals:
            mean_err = sum(finals) / len(finals)
            summary["log10_err"][name] = math.log10(max(mean_err, ERR_UNIT) / ERR_UNIT)
    return summary


def run_once(spec, work_dir: Path, reference: dict, problems: list,
             tracer=None) -> dict:
    """Run one experiment (optionally traced) and check its outputs."""
    from probes import Patch, PhaseClock
    from stochnewton import harness

    names = spec.solver_names()
    reps = spec.get("run.reps")
    out_dir = Path(tempfile.mkdtemp(dir=work_dir))
    patch, clock = Patch(), PhaseClock()
    clock.install(patch)
    run = harness.run_experiment
    if tracer is not None:
        tracer.install(patch)
        run = tracer.wrapper("harness.run_experiment")(run)
    if patch.missing:
        problems.append(f"cannot probe {', '.join(patch.missing)}")
    try:
        t0 = time.perf_counter()
        result = run(spec, out_dir=out_dir)
        t1 = time.perf_counter()
    except Exception:  # a failing experiment is reported, not fatal
        problems.append(traceback.format_exc())
        return {"ok": False, "attempted": len(names) * reps,
                "failed": len(names) * reps}
    finally:
        patch.restore()
    try:
        sample = check_experiment(result, out_dir, names, reps, reference,
                                  problems)
    finally:
        shutil.rmtree(out_dir)
    sample.update(clock.phases(t0, t1))
    sample["ok"] = sample["failed"] == 0
    sample["records"] = clock.records
    print("# experiment " + json.dumps({
        "traced": tracer is not None, "ok": sample["ok"],
        **{k: round(sample[k], 6) for k in ("wall_s", "setup_s", "pilot_s",
                                            "reps_s", "output_s",
                                            "solver_s")}}))
    return sample


# -- measurement loops -------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _peak_rss_mb(sample) -> float:
    """This process's peak so far plus the peaks of `sample`'s pool workers."""
    from probes import peak_rss_kb
    return (peak_rss_kb() + sum(sample.get("workers_rss_kb", {}).values())) / 1024.0


def time_setups(spec, seconds: float) -> list[float]:
    """Time ``harness.build_problem`` again and again, at least once."""
    from stochnewton import harness

    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        tic = time.perf_counter()
        harness.build_problem(spec)
        times.append(time.perf_counter() - tic)
    return times


def measure_end_to_end(spec, seconds, work_dir, problems):
    samples, setups, reference = [], [], {}
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        sample = run_once(spec, work_dir, reference, problems)
        if not samples:
            # A user runs one experiment per process.  Later experiments in
            # this process only add allocator growth, which would tie the
            # peak to how many fit into the run, so it is read here.
            peak_rss_mb = _peak_rss_mb(sample)
        samples.append(sample)
        if sample["ok"]:
            # set-up is short next to an experiment on most workloads, so
            # one sample per experiment would leave its median to chance
            setups.append(sample["setup_s"])
            setups += time_setups(spec, SETUP_SHARE * sample["wall_s"])
        last = time.perf_counter() - tic
        if (len(samples) >= MIN_REPEATS
                and time.perf_counter() - start + last > seconds):
            break
    good = [s for s in samples if s["ok"]]
    print("# setup " + json.dumps({"calls": len(setups),
                                   "median_s": _median(setups)}))
    # Mean, not median, for the two run-long timings: on a VM whose speed
    # flips between states for seconds at a time, the median of four to ten
    # experiments jumps with the state and spread more across runs
    # (README, "Steadiness").
    metrics = {
        "wall_s": _mean([s["wall_s"] for s in good]),
        "setup_s": _median(setups),
        "solver_s": _mean([s["solver_s"] for s in good]),
        "peak_rss_mb": peak_rss_mb,
        "oracle_evals": _median([s["evals"] for s in good]),
        "final_log10_err": _median([
            statistics.fmean(s["log10_err"].values()) for s in good]),
    }
    return samples, metrics


def measure_traced(spec, seconds, work_dir, problems):
    """Alternate untraced and traced experiments, both at one process."""
    from tracer import Tracer, layer_metrics

    spec = spec.override(**{"run.workers": 1})
    samples, untraced, traced, reference = [], [], [], {}
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        tracer = Tracer()
        # ABBA order, so a drifting machine speed favours neither side
        if len(samples) % 4 == 0:
            plain = run_once(spec, work_dir, reference, problems)
            sample = run_once(spec, work_dir, reference, problems, tracer=tracer)
        else:
            sample = run_once(spec, work_dir, reference, problems, tracer=tracer)
            plain = run_once(spec, work_dir, reference, problems)
        samples += [plain, sample]
        if plain["ok"]:
            untraced.append(plain["wall_s"])
        if sample["ok"]:
            m = layer_metrics(tracer, sample)
            m["bench.traced_wall_s"] = sample["wall_s"]
            traced.append(m)
        last = time.perf_counter() - tic
        if time.perf_counter() - start + last > seconds:
            break
    metrics = {key: _median([m[key] for m in traced])
               for key in (traced[0] if traced else {})}
    metrics["bench.untraced_wall_s"] = _median(untraced)
    overhead = metrics.get("bench.traced_wall_s", 0.0) - metrics["bench.untraced_wall_s"]
    metrics["bench.trace_overhead_s"] = overhead
    metrics["bench.trace_overhead_pct"] = (
        100.0 * overhead / metrics["bench.untraced_wall_s"]
        if metrics["bench.untraced_wall_s"] else 0.0)
    return samples, metrics


# -- reporting --------------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "commit": commit,
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_workload(args) -> int:
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[args.workload]
    wanted = benchmark_metrics(bool(args.trace))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    problems: list[str] = []
    try:
        spec, inputs = prepare(workload, args.seed, str(work_dir), args.tiny)
        print("# env " + json.dumps(environment()))
        print("# workload " + json.dumps({
            "name": workload.name, "seed": args.seed, "tiny": args.tiny,
            "trace": args.trace, "inputs": inputs,
            "solvers": spec.solver_names(), "reps": spec.get("run.reps")}))
        measure = measure_traced if args.trace else measure_end_to_end
        samples, values = measure(spec, args.seconds, work_dir, problems)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another benchmark process is still using it
    for line in problems:
        print(line.rstrip(), file=sys.stderr)
    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"error: measured metrics differ from BENCHMARK.json: not listed "
              f"{sorted(set(values) - names)}, not measured "
              f"{sorted(names - set(values))}", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; print one table per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    _import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    # away from the acceptance tests' seeds (811-819)
    parser.add_argument("--seed", type=int, default=20240607)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
