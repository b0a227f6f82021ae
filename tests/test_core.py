"""Core contracts: RNG streams, oracle samples, run traces and their CSV form."""

import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochnewton.core import (EvalCounts, PHASE_GAIN, PHASE_LINE_SEARCH,
                              RngStream, RunTrace, TraceRecord, as_vector,
                              read_trace_csv, write_trace_csv)


class TestRngStream:
    def test_same_key_replays_identically(self):
        a = RngStream(42, 0)
        b = RngStream(42, 0)
        da = [a.normal(0, 1) for _ in range(100)]
        db = [b.normal(0, 1) for _ in range(100)]
        assert da == db

    def test_distinct_stream_ids_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert a.normal(0, 1) != b.normal(0, 1)

    def test_stream_independent_of_creation_order(self):
        # stream (42, 7) yields the same draws no matter how many other
        # streams were built first
        direct = RngStream(42, 7).normal(0, 1, 50)
        for _ in range(10):
            RngStream(42, 0).normal(0, 1, 3)
        again = RngStream(42, 7).normal(0, 1, 50)
        assert np.array_equal(direct, again)

    def test_children_are_independent_and_reproducible(self):
        parent = RngStream(9, 3)
        c0 = parent.child(0).normal(0, 1, 20)
        c1 = parent.child(1).normal(0, 1, 20)
        assert not np.allclose(c0, c1)
        assert np.array_equal(c0, RngStream(9, 3).child(0).normal(0, 1, 20))

    def test_streams_are_seed_sequence_keyed_pcg64_generators(self):
        def reference(key):
            ss = np.random.SeedSequence(entropy=42, spawn_key=key)
            return np.random.Generator(np.random.PCG64(ss))

        stream = RngStream(42, 7)
        assert np.array_equal(stream.standard_normal(20),
                              reference((7,)).standard_normal(20))
        assert np.array_equal(stream.child(3).integers(0, 100, 20),
                              reference((7, 3)).integers(0, 100, 20))

    def test_choice_draws_without_replacement_by_default(self):
        assert sorted(RngStream(3, 0).choice(50, size=50)) == list(range(50))

    def test_pickled_stream_resumes_its_sequence(self):
        stream = RngStream(11, 4).child(2)
        stream.normal(0, 1, 5)
        copy = pickle.loads(pickle.dumps(stream))
        assert type(copy) is RngStream
        assert (copy.seed, copy.key) == (11, (4, 2))
        assert np.array_equal(copy.normal(0, 1, 10), stream.normal(0, 1, 10))
        assert np.array_equal(copy.child(0).uniform(0, 1, 5),
                              stream.child(0).uniform(0, 1, 5))

    @given(seed=st.integers(0, 2**63 - 1), sid=st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_replay_property(self, seed, sid):
        assert RngStream(seed, sid).normal(0, 1) == \
            RngStream(seed, sid).normal(0, 1)


class TestGaussian:
    def test_zero_stddev_returns_mean_exactly(self, rng):
        assert rng.normal(3.0, 0.0) == 3.0

    def test_negative_stddev_rejected(self, rng):
        with pytest.raises(ValueError):
            rng.normal(0.0, -1.0)

    def test_sample_mean_converges(self):
        # oracle: direct averaging; sd of the mean is 1/sqrt(K)
        draws = RngStream(7, 0).normal(0.0, 1.0, 10**6)
        assert abs(draws.mean()) < 0.005

    def test_sample_variance_converges(self):
        draws = RngStream(8, 0).normal(0.0, 0.1, 10**6)
        assert abs(draws.var() - 0.01) < 0.01 * 0.03


class TestVectors:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            as_vector([np.inf, 0.0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], n=3)
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))


class TestEvalCounts:
    def test_non_negative(self):
        with pytest.raises(ValueError):
            EvalCounts(f_evals=-1)
        assert EvalCounts(1, 2, 3).hvp_evals == 3


def _rec(k, t=0.0, phase=PHASE_LINE_SEARCH, f=1.0, err=None, g=1.0, step=1.0):
    return TraceRecord(iter=k, wall_time_s=t, f_hat=f, true_error=err,
                       grad_norm_hat=g, step_len=step, phase=phase)


class TestRunTrace:
    def test_iter_must_increase(self):
        tr = RunTrace()
        tr.append(_rec(0))
        with pytest.raises(ValueError):
            tr.append(_rec(0))

    def test_time_must_not_decrease(self):
        tr = RunTrace()
        tr.append(_rec(0, t=1.0))
        with pytest.raises(ValueError):
            tr.append(_rec(1, t=0.5))

    def test_phase_switch_is_one_way(self):
        tr = RunTrace()
        tr.append(_rec(0, phase=PHASE_LINE_SEARCH))
        tr.append(_rec(1, phase=PHASE_GAIN))
        with pytest.raises(ValueError):
            tr.append(_rec(2, phase=PHASE_LINE_SEARCH))

    def test_unknown_phase_rejected(self):
        tr = RunTrace()
        with pytest.raises(ValueError):
            tr.append(_rec(0, phase="WARP"))

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=12, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_sorted_iters_accepted_unsorted_rejected(self, iters):
        tr = RunTrace()
        for k in sorted(iters):
            tr.append(_rec(k, t=float(k)))
        assert len(tr) == len(iters)


def _csv_text(trace):
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


class TestTraceCsv:
    def _trace(self):
        tr = RunTrace("demo-rep00")
        tr.append(_rec(0, t=0.25, f=1.5, err=0.5, g=2.0, step=1.0))
        tr.append(_rec(1, t=0.5, f=1.25, err=None, g=1.0, step=0.5,
                       phase=PHASE_GAIN))
        return tr

    def test_schema_and_absent_error_encoding(self):
        text = _csv_text(self._trace())
        lines = text.strip().split("\n")
        assert lines[0] == "run_id,iter,time_s,f_hat,true_error,grad_norm,step,phase"
        assert lines[1].startswith("demo-rep00,0,") and ",LS" in lines[1]
        # absent true_error is the empty field
        assert lines[2].split(",")[4] == ""
        assert lines[2].endswith("GAIN")

    def test_round_trip(self):
        tr = self._trace()
        back = read_trace_csv(io.StringIO(_csv_text(tr)))
        assert back.run_id == tr.run_id
        for a, b in zip(tr.records, back.records):
            assert (a.iter, a.wall_time_s, a.f_hat, a.true_error,
                    a.grad_norm_hat, a.step_len, a.phase) == \
                   (b.iter, b.wall_time_s, b.f_hat, b.true_error,
                    b.grad_norm_hat, b.step_len, b.phase)

    def test_round_trip_preserves_full_float_precision(self):
        tr = RunTrace("r")
        tr.append(_rec(0, f=math.pi * 1e-7, err=1 / 3, g=math.e, step=0.1))
        back = read_trace_csv(io.StringIO(_csv_text(tr)))
        assert back.records[0].f_hat == math.pi * 1e-7
        assert back.records[0].true_error == 1 / 3

    def test_short_row_names_its_line(self):
        text = _csv_text(self._trace()) + "demo-rep00,9,1.0,2.0\n"
        line = len(text.splitlines())
        with pytest.raises(ValueError,
                           match=f"line {line}: expected 8 fields, got 4"):
            read_trace_csv(io.StringIO(text))

    def test_rejects_garbage_header(self):
        with pytest.raises(ValueError):
            read_trace_csv(io.StringIO("a,b,c\n1,2,3\n"))
