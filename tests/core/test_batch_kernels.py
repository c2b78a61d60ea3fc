"""Batch kernels vs per-event adapters vs brute-force references.

The columnar hot path leans on vectorized kernels; the per-event entry
points remain as thin adapters. These tests pin the kernels to an
O(n·lags) reference estimator (autocorrelation) and to repeated
single-record paths (density, auditor vector registers), so the fast
and slow paths cannot drift apart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AuditorConfig
from repro.core.autocorr import binary_autocorrelogram
from repro.core.event_train import EventTrain
from repro.errors import DetectionError
from repro.hardware.auditor import MonitorSlot, VectorRegisterPair


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
            one.record(r, v)
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


class TestEventTrainEdges:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 1_000), max_size=120),
        st.integers(0, 1_000),
        st.integers(0, 1_000),
    )
    def test_slice_is_half_open(self, times, t0, t1):
        train = EventTrain(np.array(sorted(times), dtype=np.int64))
        window = train.slice(t0, t1)
        expect = [t for t in sorted(times) if t0 <= t < t1]
        assert window.times.tolist() == expect

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
    def test_duplicates_preserved(self, times):
        doubled = sorted(times + times)
        train = EventTrain(np.array(doubled, dtype=np.int64))
        assert train.slice(0, 101).count == 2 * len(times)

    def test_endpoint_exactly_on_event(self):
        train = EventTrain(np.array([10, 20, 30], dtype=np.int64))
        assert train.slice(10, 30).times.tolist() == [10, 20]
        assert train.slice(10, 31).times.tolist() == [10, 20, 30]
        assert train.slice(11, 30).times.tolist() == [20]

    def test_empty_slice_and_empty_train(self):
        train = EventTrain(np.array([5], dtype=np.int64))
        assert train.slice(3, 3).count == 0
        assert train.slice(6, 4).count == 0
