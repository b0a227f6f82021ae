"""Self-test of the benchmark: a tiny mode of every workload, both modes.

    python3 perfbench/selftest.py

Checks that each workload, untraced and traced, ends with one JSON result
line that has exactly the expected keys, emits every metric that
``BENCHMARK.json`` lists under the same unit, and reports no failed run;
and that the benchmark refuses to run (non-zero exit, no result) from a
directory holding only ``BENCHMARK.json`` and ``perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def check_workload(name: str, trace: int, expected: list) -> list:
    proc = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    where = f"{name} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}\n{proc.stderr}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if list(metrics) != list(want):
        errors.append(f"{where}: metric names differ: missing "
                      f"{sorted(set(want) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(want))}")
    for metric, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != want.get(metric):
            errors.append(f"{where}: {metric} unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {metric} value {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end {metric} is {value}")
    return errors


def check_refuses_without_sources() -> list:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "noisy-cg", "--seed", "5",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check_workload(workload["name"], trace, bench[key])
            print(f"{'FAIL' if found else 'PASS'} {workload['name']} --trace {trace}")
            errors += found
    found = check_refuses_without_sources()
    print(f"{'FAIL' if found else 'PASS'} refuses to run without sources")
    errors += found
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
