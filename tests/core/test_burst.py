"""Tests for threshold-density and likelihood-ratio analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.burst import (
    analyze_histogram,
    find_threshold_bin,
    likelihood_ratio,
)
from repro.errors import DetectionError


def hist_with(bins: dict, size: int = 128) -> np.ndarray:
    hist = np.zeros(size, dtype=np.int64)
    for idx, value in bins.items():
        hist[idx] = value
    return hist


class TestThresholdBin:
    def test_valley_rule(self):
        # Decaying head then a second mode: valley at bin 4.
        hist = hist_with({0: 1000, 1: 50, 2: 30, 3: 20, 4: 10, 5: 15,
                          6: 20, 7: 12})
        assert find_threshold_bin(hist) == 4

    def test_covert_shape_threshold_at_one(self):
        # bin0 spike, silence, burst mode at 20: first valley right at 1.
        hist = hist_with({0: 2000, 20: 250})
        assert find_threshold_bin(hist) == 1

    def test_gentle_slope_fallback(self):
        # Strictly decaying histogram with a long flat tail: the valley rule
        # fails (each bin > next) until the flat region.
        hist = np.array([1000, 500, 240, 110, 50, 20, 8, 3, 1, 0, 0, 0])
        threshold = find_threshold_bin(hist)
        assert threshold is not None
        assert threshold >= 4

    def test_all_zero(self):
        assert find_threshold_bin(np.zeros(16)) is None

    def test_too_short(self):
        assert find_threshold_bin(np.array([1, 2])) is None


class TestLikelihoodRatio:
    def test_bin_zero_excluded(self):
        hist = hist_with({0: 10_000, 1: 50, 20: 450})
        assert likelihood_ratio(hist, 2) == pytest.approx(0.9)

    def test_empty_population(self):
        hist = hist_with({0: 100})
        assert likelihood_ratio(hist, 1) == 0.0

    def test_bad_threshold(self):
        with pytest.raises(DetectionError):
            likelihood_ratio(np.zeros(8), 0)

    @given(st.integers(1, 127))
    def test_bounded(self, threshold):
        rng = np.random.default_rng(threshold)
        hist = rng.integers(0, 100, 128)
        lr = likelihood_ratio(hist, threshold)
        assert 0.0 <= lr <= 1.0


class TestAnalyzeHistogram:
    def test_covert_channel_shape_significant(self):
        """bin0 spike + burst mode at density 20: LR ~1, significant."""
        hist = hist_with({0: 2000, 20: 200, 21: 50})
        analysis = analyze_histogram(hist)
        assert analysis.has_bursts
        assert analysis.likelihood_ratio > 0.9
        assert analysis.significant

    def test_mailserver_shape_not_significant(self):
        """Second mode exists (bins 5-8) but LR below 0.5 — the paper's
        mailserver case must not alarm."""
        hist = hist_with({0: 20_000, 1: 200, 2: 60, 3: 30, 5: 8, 6: 6,
                          7: 9, 8: 8})
        analysis = analyze_histogram(hist)
        assert analysis.likelihood_ratio < 0.5
        assert not analysis.significant

    def test_empty_histogram_not_significant(self):
        analysis = analyze_histogram(np.zeros(128, dtype=np.int64))
        assert not analysis.has_bursts
        assert not analysis.significant
        assert analysis.likelihood_ratio == 0.0

    def test_bin_zero_only(self):
        analysis = analyze_histogram(hist_with({0: 500}))
        assert not analysis.significant

    def test_poisson_like_not_significant(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(0.5, 100_000)
        hist = np.bincount(np.minimum(counts, 127), minlength=128)
        analysis = analyze_histogram(hist)
        assert not analysis.significant

    def test_too_few_bins_rejected(self):
        with pytest.raises(DetectionError):
            analyze_histogram(np.array([1, 2]))

    def test_negative_rejected(self):
        with pytest.raises(DetectionError):
            analyze_histogram(np.array([1, -2, 3]))

    def test_means_split_correctly(self):
        hist = hist_with({0: 900, 1: 100, 20: 100})
        analysis = analyze_histogram(hist)
        assert analysis.nonburst_mean < 1.0
        assert analysis.burst_mean == pytest.approx(20.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    @pytest.mark.parametrize(
        "tail", [{1: 1, 2: 1}, {2: 1}], ids=["two-windows", "one-window"]
    )
    def test_sparse_tail_not_significant(self, tail):
        """A near-idle quantum: 2,500 windows, of which one or two hold
        an event or two. A tail that thin is not a second mode."""
        hist = hist_with({0: 2500 - sum(tail.values()), **tail})
        assert not analyze_histogram(hist).significant

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_never_crashes_on_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        hist = rng.integers(0, 1000, 128)
        analysis = analyze_histogram(hist)
        assert 0.0 <= analysis.likelihood_ratio <= 1.0
