"""Batch kernels vs one-at-a-time use vs brute-force references.

The columnar hot path leans on vectorized kernels. These tests pin them
to an O(n·lags) reference estimator (autocorrelation), to the same
kernels fed one window or one record at a time (the auditor slot's
density fold, the auditor vector registers), and to a brute-force
filter (window reads of an event train), so batching cannot change a
result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AuditorConfig
from repro.core.autocorr import binary_autocorrelogram
from repro.errors import DetectionError, SimulationError
from repro.hardware.auditor import MonitorSlot, VectorRegisterPair
from repro.sim.events import EventTap


def reference_correlogram(x, max_lag):
    """The paper's r_p computed the slow, obvious way: O(n·lags)."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    max_lag = min(max_lag, n - 1)
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        return np.ones(max_lag + 1, dtype=np.float64)
    return np.array(
        [
            float(np.dot(centered[: n - p], centered[p:])) / denom
            for p in range(max_lag + 1)
        ]
    )


class TestBinaryAutocorrelogram:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=120),
        st.integers(0, 40),
    )
    def test_matches_reference(self, bits, max_lag):
        ref = reference_correlogram(bits, max_lag)
        got = binary_autocorrelogram(np.array(bits), max_lag)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.0, 1.0, 0.0]),
            np.array([0, 1, 2]),
            np.array([0, -1, 1]),
            np.array([1]),
            np.array([], dtype=np.int64),
        ],
        ids=["float", "above-one", "negative", "one-sample", "empty"],
    )
    def test_rejects_non_binary_or_short_trains(self, labels):
        with pytest.raises(DetectionError):
            binary_autocorrelogram(labels, 4)

    def test_rejects_negative_max_lag(self):
        with pytest.raises(DetectionError, match="max_lag"):
            binary_autocorrelogram(np.array([0, 1, 0]), -1)


def _slot():
    return MonitorSlot("x", 10, AuditorConfig(histogram_bins=16))


class TestStreamingDensityBatch:
    """The auditor slot's density fold, one window at a time or batched."""

    def test_push_adapter_equals_batch(self):
        counts = [0, 3, 1, 0, 200, 5]
        one, many = _slot(), _slot()
        for c in counts:
            one.ingest_window_counts([c])
        many.ingest_window_counts(np.array(counts, dtype=np.int64))
        np.testing.assert_array_equal(one.histogram, many.histogram)
        assert one.events_seen == many.events_seen

    def test_float_counts_rejected_loudly(self):
        slot = _slot()
        with pytest.raises(DetectionError, match="integers"):
            slot.ingest_window_counts(np.array([1.7, 2.2]))
        assert slot.windows_recorded == 0

    def test_narrow_integer_dtypes_widened(self):
        slot = _slot()
        slot.ingest_window_counts(np.array([1, 2], dtype=np.int32))
        assert slot.events_seen == 3


class TestVectorRegisterBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=300
        )
    )
    def test_batch_equals_per_record(self, pairs):
        cfg = AuditorConfig()
        one = VectorRegisterPair(cfg)
        many = VectorRegisterPair(cfg)
        for r, v in pairs:
            one.record_batch(np.array([r]), np.array([v]))
        reps = np.array([p[0] for p in pairs], dtype=np.int64)
        vics = np.array([p[1] for p in pairs], dtype=np.int64)
        many.record_batch(reps, vics)
        assert one.swaps == many.swaps
        assert one.pending == many.pending
        r1, v1 = one.drain()
        r2, v2 = many.drain()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(v1, v2)

    def test_batch_rejects_out_of_range(self):
        from repro.errors import HardwareError

        pair = VectorRegisterPair(AuditorConfig())
        with pytest.raises(HardwareError):
            pair.record_batch(
                np.array([0, 8], dtype=np.int64),
                np.array([0, 0], dtype=np.int64),
            )
        assert pair.pending == 0


def _read(times, t0, t1):
    """``[t0, t1)`` of an event train, through a fresh window reader."""
    tap = EventTap("t")
    tap.record_batch(np.array(times, dtype=np.int64))
    return tap.window_reader().read(t0, t1)


class TestEventTrainEdges:
    """Window reads of an event train, against a brute-force filter."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 1_000), max_size=120),
        st.integers(0, 1_000),
        st.integers(0, 1_000),
    )
    def test_slice_is_half_open(self, times, t0, t1):
        t0, t1 = min(t0, t1), max(t0, t1)
        expect = [t for t in sorted(times) if t0 <= t < t1]
        assert _read(times, t0, t1).tolist() == expect

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
    def test_duplicates_preserved(self, times):
        assert _read(times + times, 0, 101).size == 2 * len(times)

    def test_endpoint_exactly_on_event(self):
        assert _read([10, 20, 30], 10, 30).tolist() == [10, 20]
        assert _read([10, 20, 30], 10, 31).tolist() == [10, 20, 30]
        assert _read([10, 20, 30], 11, 30).tolist() == [20]

    def test_empty_slice_and_empty_train(self):
        assert _read([5], 3, 3).size == 0
        assert _read([], 0, 10).size == 0
        with pytest.raises(SimulationError):
            _read([5], 6, 4)
