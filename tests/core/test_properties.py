"""Cross-cutting property tests on the detection pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autocorr import binary_autocorrelogram
from repro.core.clustering import PatternHorizon
from repro.config import AuditorConfig
from repro.core.event_train import dominant_pair_series
from repro.core.oscillation import analyze_autocorrelogram
from repro.hardware.auditor import MonitorSlot
from repro.sim.events import EventTap
from repro.util.stats import sample_counts_to_histogram
from tests.core.autocorr_reference import autocorrelogram


def _density_histogram(times, dt, t1, n_bins):
    """The density histogram of ``times`` over ``[0, t1)``, through a
    fresh window reader."""
    tap = EventTap("t")
    tap.record_batch(np.array(times, dtype=np.int64))
    counts = tap.window_reader().read_counts(dt, 0, t1).expand()
    return sample_counts_to_histogram(counts, n_bins)


class TestDensityInvariants:
    @settings(max_examples=30)
    @given(
        st.lists(st.integers(0, 100_000), max_size=300),
        st.integers(16, 5_000),
    )
    def test_histogram_counts_every_window(self, times, dt):
        hist = _density_histogram(times, dt, 100_001, 128)
        assert hist.sum() == -(-100_001 // dt)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 9_999), min_size=1, max_size=300))
    def test_no_events_lost_below_clamp(self, times):
        hist = _density_histogram(times, 10_000, 10_000, 1024)
        # A single window wide enough for everything: exact count.
        assert (hist * np.arange(hist.size)).sum() == len(times)


class TestPairSeriesInvariants:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=200,
        )
    )
    def test_dominant_pair_subsequence_well_formed(self, pairs):
        reps = np.array([p[0] for p in pairs], dtype=np.int64)
        vics = np.array([p[1] for p in pairs], dtype=np.int64)
        labels, idx, pair = dominant_pair_series(reps, vics)
        assert labels.size == idx.size
        assert set(np.unique(labels).tolist()) <= {0, 1}
        if labels.size:
            a, b = pair
            assert a != b
            for i, label in zip(idx, labels):
                assert {int(reps[i]), int(vics[i])} == {a, b}
                assert (int(reps[i]) == a) == bool(label)


class TestAnalysisRobustness:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(8, 400))
    def test_oscillation_analysis_never_crashes(self, seed, n):
        rng = np.random.default_rng(seed)
        series = rng.integers(0, 2, size=max(n, 8))
        acf = binary_autocorrelogram(series, 200)
        analysis = analyze_autocorrelogram(acf)
        assert 0.0 <= analysis.coverage <= 1.0
        assert analysis.max_peak <= 1.0 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 24))
    def test_recurrence_never_crashes(self, seed, n_windows):
        rng = np.random.default_rng(seed)
        hists = [
            rng.integers(0, 50, 128).astype(np.int64)
            for _ in range(n_windows)
        ]
        horizon = PatternHorizon()
        for hist in hists:
            horizon.push(hist)
        result = horizon.analyze()
        assert result.n_windows == n_windows
        assert result.cluster_labels.size == n_windows
        assert 0.0 <= result.burst_window_fraction <= 1.0


def _chunked(rng, arr):
    """Split an array into random-size chunks (including empty ones)."""
    chunks = []
    i = 0
    while i < len(arr):
        step = int(rng.integers(0, 9))
        chunks.append(arr[i:i + step])
        i += step
    return chunks


class TestStreamingEqualsBatch:
    """The pipeline's estimators must match the batch ones."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(2, 300),
        st.integers(0, 80),
    )
    def test_binary_autocorrelogram_matches_fft(self, seed, n, max_lag):
        rng = np.random.default_rng(seed)
        series = rng.integers(0, 2, size=n).astype(np.int64)
        batch = autocorrelogram(series, max_lag)
        exact = binary_autocorrelogram(series, max_lag)
        assert exact.shape == batch.shape
        # Integer series: the lagged sums are exact integers; only the
        # FFT's own float round-off separates the two.
        assert np.allclose(exact, batch, atol=1e-9, rtol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=400),
        st.integers(0, 10_000),
    )
    def test_streaming_density_from_counts_bit_exact(self, counts, seed):
        rng = np.random.default_rng(seed)
        arr = np.array(counts, dtype=np.int64)
        batch = sample_counts_to_histogram(arr, 128)
        slot = MonitorSlot("x", 100, AuditorConfig())
        for chunk in _chunked(rng, arr):
            slot.ingest_window_counts(chunk)
        assert np.array_equal(slot.read_and_reset(), batch)


class TestDeterminism:
    def test_same_seed_same_verdict(self):
        from repro.analysis.figures import run_channel_session
        from repro.util.bitstream import Message

        def verdict():
            run = run_channel_session(
                "membus", Message.random(20, 5), bandwidth_bps=100.0, seed=5
            )
            v = run.hunter.report().verdicts[0]
            return (v.detected, v.max_likelihood_ratio,
                    run.machine.bus_lock_tap.count)

        assert verdict() == verdict()
