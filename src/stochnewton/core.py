"""Shared domain types: reproducible RNG streams, oracle samples and run traces.

Everything downstream (problem generators, solvers, the experiment harness)
builds on the three contracts defined here:

* :class:`RngStream` -- splittable, replication-safe random streams, each a
  numpy ``Generator`` keyed by ``(seed, key)`` whose ``choice`` draws
  without replacement unless told otherwise,
* :class:`OracleSample` -- one noisy evaluation of (f, g, B),
* :class:`RunTrace` -- the per-iteration record emitted by every solver run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

PHASE_LINE_SEARCH = "LS"
PHASE_GAIN = "GAIN"

TRACE_CSV_COLUMNS = (
    "run_id",
    "iter",
    "time_s",
    "f_hat",
    "true_error",
    "grad_norm",
    "step",
    "phase",
)


def as_vector(x, n: Optional[int] = None) -> Vector:
    """Coerce `x` to a float64 1-D array and validate it.

    Raises ValueError on wrong dimension or non-finite entries; this is the
    boundary check behind the "no NaN/Inf after public operations" contract.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


class RngStream(np.random.Generator):
    """A named, reproducible random stream: a numpy ``Generator``.

    Streams are identified by ``(seed, key)`` where ``key`` extends
    ``(stream_id,)`` with the path of :meth:`child` splits.  The bit
    generator is PCG64 seeded through ``numpy.random.SeedSequence(
    entropy=seed, spawn_key=key)``, so

    * the same ``(seed, key)`` always reproduces the same draw sequence,
      independently of how many other streams exist, and
    * distinct keys yield statistically independent streams.

    This is what makes replication ``r`` of an experiment independent of the
    total replication count: each replication owns stream id ``r``.  Every
    draw method is numpy's own, except that :meth:`choice` draws without
    replacement unless told otherwise.  A stream pickles as a stream, with
    its key and its position in the sequence.
    """

    __slots__ = ("seed", "key")

    def __init__(self, seed: int, stream_id: int = 0, _key: Optional[tuple] = None):
        self.seed = int(seed)
        self.key = _key if _key is not None else (int(stream_id),)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        super().__init__(np.random.PCG64(ss))

    def child(self, tag: int) -> "RngStream":
        """Split off an independent stream; never reuses this stream's draws."""
        return RngStream(self.seed, _key=self.key + (int(tag),))

    def choice(self, a, size=None, replace: bool = False, **kwargs):
        return super().choice(a, size, replace, **kwargs)

    def __reduce__(self):
        return RngStream, (self.seed, 0, self.key), self.bit_generator.state

    def __setstate__(self, state: dict) -> None:
        self.bit_generator.state = state

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"


@dataclass(frozen=True)
class EvalCounts:
    """Oracle evaluation counts.

    Cumulative from the ``counts()`` of a noisy oracle or a finite-sum
    problem; per run on every solver result.

    The HVP unit differs by family.  A noisy oracle counts one per matvec
    of a sampled Hessian, so one per CG iteration.  A finite-sum problem
    counts component Hessians: ``batch_hessian`` and ``batch_hvp`` add the
    batch size per call, so an L-BFGS correction pair adds ``|T|``.
    Values and gradients count one per noisy draw or per component.
    """

    f_evals: int = 0
    g_evals: int = 0
    hvp_evals: int = 0

    def __post_init__(self):
        if min(self.f_evals, self.g_evals, self.hvp_evals) < 0:
            raise ValueError("evaluation counts must be non-negative")


@dataclass(frozen=True)
class OracleSample:
    """One (possibly noisy) oracle response.

    Any subset of value / gradient / hessian may be present, depending on
    what the caller asked for.  ``hessian`` is a linear-operator handle (see
    :class:`stochnewton.linalg.SpdOperator`); for noisy oracles the noise
    realization is frozen inside the handle, so repeated applications within
    one sample are consistent.
    """

    value: Optional[float] = None
    gradient: Optional[Vector] = None
    hessian: Optional[object] = None


@dataclass
class TraceRecord:
    """One solver iteration: observables at iterate ``x_k`` plus the step taken."""

    iter: int
    wall_time_s: float
    f_hat: float
    true_error: Optional[float]
    grad_norm_hat: float
    step_len: float
    phase: str
    # diagnostics, not part of the CSV schema
    cg_iters: Optional[int] = None
    cg_relres: Optional[float] = None
    fallback: bool = False


class RunTrace:
    """Append-only per-run record with monotonicity checks on insertion.

    Invariants enforced:
      * ``iter`` strictly increasing,
      * ``wall_time_s`` non-decreasing,
      * the phase switches LS -> GAIN at most once and never back.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.records: list[TraceRecord] = []

    def append(self, rec: TraceRecord) -> None:
        if rec.phase not in (PHASE_LINE_SEARCH, PHASE_GAIN):
            raise ValueError(f"unknown phase {rec.phase!r}")
        if self.records:
            last = self.records[-1]
            if rec.iter <= last.iter:
                raise ValueError(f"iter must increase: {last.iter} -> {rec.iter}")
            if rec.wall_time_s < last.wall_time_s:
                raise ValueError("wall_time_s must be non-decreasing")
            if last.phase == PHASE_GAIN and rec.phase == PHASE_LINE_SEARCH:
                raise ValueError("phase cannot return from GAIN to LS")
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]


def _fmt(x: Optional[float]) -> str:
    # repr of a Python float is the shortest round-trip form; '' encodes absent
    if x is None:
        return ""
    return repr(float(x))


def write_trace_csv(trace: RunTrace, fh) -> None:
    """Write `trace` in the canonical schema.

    Columns: ``run_id,iter,time_s,f_hat,true_error,grad_norm,step,phase``;
    ``true_error`` is the empty string when unknown.
    """
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(TRACE_CSV_COLUMNS)
    for r in trace.records:
        w.writerow(
            [
                trace.run_id,
                r.iter,
                _fmt(r.wall_time_s),
                _fmt(r.f_hat),
                _fmt(r.true_error),
                _fmt(r.grad_norm_hat),
                _fmt(r.step_len),
                r.phase,
            ]
        )


def read_trace_csv(fh) -> RunTrace:
    """Parse a trace written by :func:`write_trace_csv` (invariants re-checked);
    a header-only file (no iteration recorded) gives an empty trace.  A bad
    row raises a :class:`ValueError` that names its line."""
    rd = csv.reader(fh)
    header = next(rd, None)
    if header is None:
        raise ValueError("empty trace file")
    if tuple(header) != TRACE_CSV_COLUMNS:
        raise ValueError(f"unexpected trace header: {header}")
    trace = RunTrace()
    for row in rd:
        if not row:
            continue
        try:
            if len(row) != len(TRACE_CSV_COLUMNS):
                raise ValueError(f"expected {len(TRACE_CSV_COLUMNS)} fields, "
                                 f"got {len(row)}")
            run_id, it, t, f_hat, true_err, gnorm, step, phase = row
            trace.append(TraceRecord(
                iter=int(it), wall_time_s=float(t), f_hat=float(f_hat),
                true_error=float(true_err) if true_err != "" else None,
                grad_norm_hat=float(gnorm), step_len=float(step), phase=phase))
        except ValueError as exc:
            raise ValueError(f"line {rd.line_num}: {exc}") from None
        trace.run_id = run_id
    return trace
