"""Tests for indicator-event taps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventTap, LabeledEventTap, RateSegmentTap


class TestEventTap:
    def test_times_sorted(self):
        tap = EventTap("t")
        tap.record_batch(np.array([30, 10, 20]), ctx=1)
        assert tap.times().tolist() == [10, 20, 30]

    def test_contexts_follow_times(self):
        tap = EventTap("t")
        tap.record(20, ctx=2)
        tap.record(10, ctx=1)
        times, ctxs = tap.times_and_contexts()
        assert times.tolist() == [10, 20]
        assert ctxs.tolist() == [1, 2]

    def test_times_in_window(self):
        tap = EventTap("t")
        tap.record_batch(np.arange(0, 100, 10), ctx=0)
        assert tap.times_in(25, 55).tolist() == [30, 40, 50]

    def test_density_counts(self):
        tap = EventTap("t")
        tap.record_batch(np.array([1, 2, 3, 25, 26]), ctx=0)
        counts = tap.density_counts(10, 0, 30)
        assert counts.tolist() == [3, 0, 2]

    def test_density_counts_empty(self):
        tap = EventTap("t")
        assert tap.density_counts(10, 0, 50).tolist() == [0] * 5

    def test_density_bad_dt(self):
        tap = EventTap("t")
        with pytest.raises(SimulationError):
            tap.density_counts(0, 0, 10)

    def test_cache_invalidated_on_append(self):
        tap = EventTap("t")
        tap.record(5, 0)
        assert tap.times().tolist() == [5]
        tap.record(3, 0)
        assert tap.times().tolist() == [3, 5]


class TestRateSegmentTap:
    def test_segment_mass_spread(self):
        tap = RateSegmentTap("d")
        tap.record_segment(0, 1000, 0.01)  # 10 events over [0, 1000)
        counts = tap.density_counts(100, 0, 1000)
        assert counts.tolist() == [1] * 10

    def test_partial_window_coverage(self):
        tap = RateSegmentTap("d")
        tap.record_segment(50, 150, 0.1)  # 10 events, half in each window
        counts = tap.density_counts(100, 0, 200)
        assert counts.tolist() == [5, 5]

    def test_sparse_events_counted(self):
        tap = RateSegmentTap("d")
        tap.record(10)
        tap.record(110)
        assert tap.density_counts(100, 0, 200).tolist() == [1, 1]

    def test_zero_rate_ignored(self):
        tap = RateSegmentTap("d")
        tap.record_segment(0, 100, 0.0)
        assert len(tap.segments) == 0

    def test_batch_recording(self):
        tap = RateSegmentTap("d")
        tap.record_segments_batch(
            np.array([0, 100]), np.array([50, 150]), np.array([0.1, 0.2])
        )
        assert len(tap.segments) == 2

    def test_batch_skips_empty(self):
        tap = RateSegmentTap("d")
        tap.record_segments_batch(
            np.array([0, 100]), np.array([0, 150]), np.array([0.1, 0.0])
        )
        assert len(tap.segments) == 0

    def test_expected_count(self):
        tap = RateSegmentTap("d")
        tap.record_segment(0, 1000, 0.05)
        tap.record(5)
        assert tap.count == pytest.approx(51.0)

    def test_materialize_times(self):
        tap = RateSegmentTap("d")
        tap.record_segment(0, 1000, 0.01)
        times = tap.materialize_times(0, 1000)
        assert times.size == 10
        assert (np.diff(times) > 0).all()

    def test_materialize_thinning(self):
        tap = RateSegmentTap("d")
        tap.record_segment(0, 10_000, 0.1)
        times = tap.materialize_times(0, 10_000, max_events=100)
        assert times.size == 100

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5_000),
                st.integers(1, 2_000),
                st.floats(0.001, 0.5),
            ),
            max_size=12,
        ),
        st.integers(50, 500),
    )
    def test_density_matches_bruteforce(self, segments, dt):
        tap = RateSegmentTap("d")
        t0, t1 = 0, 6_000
        for start, length, rate in segments:
            tap.record_segment(start, start + length, rate)
        fast = tap.density_counts(dt, t0, t1)
        n = -(-(t1 - t0) // dt)
        slow = np.zeros(n)
        for start, length, rate in segments:
            # Only events inside [t0, t1) count, as for explicit-time taps.
            start, end = max(start, t0), min(start + length, t1)
            for w in range(n):
                ws, we = t0 + w * dt, t0 + (w + 1) * dt
                slow[w] += max(0, min(end, we) - max(start, ws)) * rate
        assert fast.tolist() == np.floor(slow + 0.5 + 1e-6).astype(np.int64).tolist()


class TestLabeledEventTap:
    def test_records_sorted(self):
        tap = LabeledEventTap("c")
        tap.record(20, 1, 2)
        tap.record(10, 2, 1)
        times, reps, vics = tap.records()
        assert times.tolist() == [10, 20]
        assert reps.tolist() == [2, 1]
        assert vics.tolist() == [1, 2]

    def test_records_in_window(self):
        tap = LabeledEventTap("c")
        for t in range(5):
            tap.record(t * 100, 0, 1)
        times, _, _ = tap.records_in(150, 350)
        assert times.tolist() == [200, 300]

    def test_context_id_bounds(self):
        tap = LabeledEventTap("c", context_id_bits=3)
        with pytest.raises(SimulationError):
            tap.record(0, 8, 0)

    def test_misaligned_batch_raises(self):
        tap = LabeledEventTap("c")
        with pytest.raises(SimulationError):
            tap.record_batch(np.array([1, 2]), np.array([0]), np.array([1]))

    def test_count(self):
        tap = LabeledEventTap("c")
        tap.record_batch(
            np.array([1, 2, 3]), np.array([0, 0, 1]), np.array([1, 1, 0])
        )
        assert tap.count == 3
