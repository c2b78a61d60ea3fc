"""Tests for oscillation (periodicity) detection on correlograms.

0/1 trains go through the detector's kernel; the general series (noise
labels outside 0/1, a random walk) through the FFT reference.
"""

import numpy as np
import pytest

from repro.core.autocorr import binary_autocorrelogram
from repro.core.oscillation import analyze_autocorrelogram, find_peaks
from repro.errors import DetectionError
from tests.core.autocorr_reference import autocorrelogram


def square_train(half_period, repeats, noise_rate=0.0, seed=0):
    """A covert-like 0/1 run train with optional inserted noise labels."""
    rng = np.random.default_rng(seed)
    series = []
    for _ in range(repeats):
        series.extend([1] * half_period)
        series.extend([0] * half_period)
    series = np.array(series, dtype=np.int64)
    if noise_rate > 0:
        n_noise = int(series.size * noise_rate)
        positions = rng.integers(0, series.size, n_noise)
        series = np.insert(series, positions, rng.integers(2, 4, n_noise))
    return series


class TestFindPeaks:
    def test_finds_periodic_peaks(self):
        acf = binary_autocorrelogram(square_train(64, 20), 700)
        lags, heights = find_peaks(acf, min_height=0.4)
        assert lags.tolist() == [128, 256, 384, 512, 640]
        assert (heights > 0.7).all()

    def test_height_floor(self):
        acf = binary_autocorrelogram(square_train(64, 20), 700)
        lags, _ = find_peaks(acf, min_height=1.01)
        assert lags.size == 0

    def test_ripples_suppressed_by_prominence(self):
        """Small ripples on a decaying slope must not count as peaks."""
        rng = np.random.default_rng(1)
        lags_axis = np.arange(500)
        decaying = np.exp(-lags_axis / 400) + rng.normal(0, 0.01, 500)
        decaying[0] = 1.0
        lags, _ = find_peaks(decaying, min_height=0.3)
        assert lags.size == 0

    def test_short_input(self):
        lags, heights = find_peaks(np.array([1.0, 0.5]), 0.3)
        assert lags.size == 0


class TestAnalyze:
    def test_clean_channel_train_significant(self):
        acf = binary_autocorrelogram(square_train(128, 12), 1000)
        analysis = analyze_autocorrelogram(acf)
        assert analysis.significant
        assert analysis.dominant_period == pytest.approx(256, rel=0.05)
        assert analysis.min_dip < -0.8

    def test_noisy_channel_train_significant(self):
        """A few percent of inserted noise labels shift the wavelength
        slightly upward (the paper's 533 vs 512) without losing
        significance."""
        acf = autocorrelogram(square_train(128, 12, noise_rate=0.02), 1000)
        analysis = analyze_autocorrelogram(acf)
        assert analysis.significant
        assert 256 <= analysis.dominant_period <= 290

    def test_long_wavelength_single_peak_significant(self):
        """One wavelength fitting the lag range once: the dominant-peak
        signature (strong peak + deep dip) still fires."""
        acf = binary_autocorrelogram(square_train(256, 8), 600)
        analysis = analyze_autocorrelogram(acf)
        assert analysis.significant
        assert analysis.min_dip < -0.5

    def test_white_noise_not_significant(self):
        rng = np.random.default_rng(0)
        acf = binary_autocorrelogram(rng.integers(0, 2, 4000), 1000)
        assert not analyze_autocorrelogram(acf).significant

    def test_slow_decay_not_significant(self):
        """Benign bursty phases: strong short-lag correlation that decays
        without anti-correlation — must not count as oscillation."""
        rng = np.random.default_rng(2)
        # AR(1)-style positively correlated series.
        x = np.zeros(4000)
        for i in range(1, 4000):
            x[i] = 0.995 * x[i - 1] + rng.normal()
        acf = autocorrelogram(x, 1000)
        assert not analyze_autocorrelogram(acf).significant

    def test_brief_periodicity_rejected(self):
        """The webserver case: periodicity only at small lags that dies
        out must fail the coverage requirement."""
        rng = np.random.default_rng(3)
        # A few short periodic episodes inside a long random train.
        parts = []
        for _ in range(6):
            parts.append(rng.integers(0, 2, 400))
            parts.append(np.array(([1] * 10 + [0] * 10) * 4))
        acf = binary_autocorrelogram(np.concatenate(parts), 1000)
        analysis = analyze_autocorrelogram(acf)
        assert not analysis.significant

    def test_no_peaks_result(self):
        acf = np.zeros(100)
        acf[0] = 1.0
        analysis = analyze_autocorrelogram(acf)
        assert not analysis.significant
        assert analysis.max_peak == 0.0
        assert analysis.dominant_period == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(DetectionError):
            analyze_autocorrelogram(np.array([1.0, 0.5]))

    def test_coverage_computed(self):
        acf = binary_autocorrelogram(square_train(64, 20), 700)
        analysis = analyze_autocorrelogram(acf)
        assert analysis.coverage == pytest.approx(640 / 700, rel=0.05)
