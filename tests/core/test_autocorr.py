"""Tests for the autocorrelation estimator (exact match to the paper's).

:func:`binary_autocorrelogram` is the one kernel the detector and the
figures run, on 0/1 identifier trains. The FFT estimator in
``tests/core/autocorr_reference.py`` serves tests that need a general
series, so it is pinned to the paper's formula here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autocorr import binary_autocorrelogram
from repro.errors import DetectionError
from tests.core.autocorr_reference import autocorrelogram


def naive_r(x, p):
    """The paper's formula, computed directly."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean()
    denom = (centered**2).sum()
    if denom == 0:
        return 1.0
    if p == 0:
        return 1.0
    return float((centered[: len(x) - p] * centered[p:]).sum() / denom)


class TestAutocorrelation:
    """Single coefficients read off the kernel's correlogram."""

    def test_lag_zero_is_one(self):
        assert binary_autocorrelogram(np.array([0, 1, 1]), 0)[0] == 1.0

    def test_alternating_series(self):
        x = np.array([0, 1] * 50)
        acf = binary_autocorrelogram(x, 2)
        assert acf[1] == pytest.approx(naive_r(x, 1))
        assert acf[2] == pytest.approx(naive_r(x, 2))
        assert acf[1] < -0.9
        assert acf[2] > 0.9

    def test_constant_series(self):
        assert binary_autocorrelogram(np.ones(10, dtype=np.int64), 3)[3] == 1.0

    def test_bounds_checking(self):
        with pytest.raises(DetectionError):
            binary_autocorrelogram(np.array([1]), 0)
        with pytest.raises(DetectionError):
            binary_autocorrelogram(np.array([0, 2, 1]), 1)
        with pytest.raises(DetectionError):
            binary_autocorrelogram(np.array([0.0, 1.0]), 1)


class TestAutocorrelogram:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=300)
        acf = binary_autocorrelogram(x, 50)
        for p in (0, 1, 5, 25, 50):
            assert acf[p] == pytest.approx(naive_r(x, p), abs=1e-9)

    def test_square_wave_peaks_at_period(self):
        """The cache channel's train shape: runs of 0s and 1s of length L
        peak at lag 2L (the wavelength)."""
        L = 32
        x = np.array(([1] * L + [0] * L) * 20)
        acf = binary_autocorrelogram(x, 3 * 2 * L)
        assert acf[2 * L] > 0.9
        assert acf[L] < -0.9

    def test_max_lag_clipped(self):
        acf = binary_autocorrelogram(np.arange(10) % 2, 100)
        assert acf.size == 10  # lags 0..9

    def test_constant_series_all_ones(self):
        acf = binary_autocorrelogram(np.zeros(20, dtype=np.int64), 10)
        assert (acf == 1.0).all()

    def test_negative_max_lag_rejected(self):
        with pytest.raises(DetectionError):
            binary_autocorrelogram(np.arange(10) % 2, -1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(16, 256))
    def test_fft_equals_naive_everywhere(self, seed, n):
        """The reference FFT estimator, on general integer series."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=n).astype(float)
        acf = autocorrelogram(x, n - 1)
        probes = [1, n // 3, n // 2, n - 1]
        for p in probes:
            assert acf[p] == pytest.approx(naive_r(x, p), abs=1e-9)

    def test_acf_bounded_by_one_at_zero(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=500)
        acf = binary_autocorrelogram(x, 100)
        assert acf[0] == pytest.approx(1.0)
        assert np.abs(acf).max() <= 1.0 + 1e-9
