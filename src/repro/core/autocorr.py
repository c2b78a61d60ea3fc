"""Autocorrelation of event trains (Section IV-D).

Given measurements ``X_1 .. X_N``, the autocorrelation coefficient at lag
``p`` with mean ``X̄`` is::

    r_p = sum_{i=1}^{n-p} (X_i - X̄)(X_{i+p} - X̄) / sum_{i=1}^{n} (X_i - X̄)^2

``r_1`` alone detects non-randomness; an *autocorrelogram* (r_p over a lag
range) reveals periodicity: a cache covert channel's conflict-miss
identifier sequence repeats with a wavelength near the number of cache
sets used for transmission, producing high peaks at that lag and its
multiples.

The full correlogram is computed with an FFT-based convolution, which is
exactly the paper's estimator (the same sums, evaluated in O(n log n)).
:func:`binary_autocorrelogram` is the detector's kernel for 0/1
identifier trains: exact integer lagged sums over the needed lags only.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DetectionError


def autocorrelation(x: np.ndarray, lag: int) -> float:
    """The paper's r_p at a single lag. O(n); use autocorrelogram for sweeps."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise DetectionError("autocorrelation needs at least 2 samples")
    if not 0 <= lag < n:
        raise DetectionError(f"lag {lag} outside 0..{n - 1}")
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        # A constant series: perfectly self-similar at every lag.
        return 1.0
    if lag == 0:
        return 1.0
    num = float(np.dot(centered[: n - lag], centered[lag:]))
    return num / denom


def autocorrelogram(x: np.ndarray, max_lag: int) -> np.ndarray:
    """r_p for p = 0 .. max_lag (inclusive), as a float array.

    ``max_lag`` is clipped to ``len(x) - 1``. For a constant series the
    correlogram is all ones (see :func:`autocorrelation`).
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise DetectionError("autocorrelogram needs at least 2 samples")
    if max_lag < 0:
        raise DetectionError(f"max_lag must be non-negative, got {max_lag}")
    max_lag = min(max_lag, n - 1)
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        return np.ones(max_lag + 1, dtype=np.float64)
    # FFT-based autocovariance: pad to avoid circular wrap-around.
    size = 1
    while size < 2 * n:
        size <<= 1
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conjugate(spectrum), size)[: max_lag + 1]
    return acov / denom


#: Below this many samples a 0/1 train's lagged products run in float32:
#: every partial sum is an integer no larger than the train's length,
#: which float32 holds exactly up to 2**24.
_FLOAT32_EXACT = 1 << 24


def binary_autocorrelogram(labels: np.ndarray, max_lag: int) -> np.ndarray:
    """r_p for p = 0 .. min(max_lag, n−1) of a 0/1 identifier train.

    The oscillation analyzer's kernel, exact in O(max_lag · n). The lagged
    products ``C_p = Σ_i x_i · x_{i+p}`` come from one sliding
    correlation of the zero-padded train with itself over the needed
    lags only; for 0/1 labels they are exact integer sums. Expanding
    ``Σ (x_i − x̄)(x_{i+p} − x̄)`` gives
    ``C_p − x̄·(2Σx − head_p − tail_p) + (n−p)·x̄²`` over
    ``C_0 − n·x̄²``, where ``head_p`` / ``tail_p`` are the sums of the
    first / last ``p`` labels. A constant train's correlogram is all
    ones, as in :func:`autocorrelogram`, which this matches to the FFT's
    round-off.
    """
    x = np.asarray(labels).ravel()
    if x.dtype.kind not in "biu":
        raise DetectionError(
            f"binary_autocorrelogram needs integer 0/1 labels, got {x.dtype}"
        )
    n = x.size
    if n < 2:
        raise DetectionError("autocorrelogram needs at least 2 samples")
    if max_lag < 0:
        raise DetectionError(f"max_lag must be non-negative, got {max_lag}")
    if x.min() < 0 or x.max() > 1:
        raise DetectionError("binary_autocorrelogram needs labels in {0, 1}")
    max_lag = min(max_lag, n - 1)
    y = x.astype(np.float32 if n <= _FLOAT32_EXACT else np.float64)
    padded = np.concatenate([y, np.zeros(max_lag, dtype=y.dtype)])
    cross = np.correlate(padded, y, mode="valid").astype(np.float64)
    total = float(x.sum())
    mean = total / n
    denom = float(cross[0]) - n * mean * mean
    if denom <= 0.0:
        return np.ones(max_lag + 1, dtype=np.float64)
    p = np.arange(max_lag + 1)
    head_p = np.concatenate(([0.0], np.cumsum(x[:max_lag])))
    tail_p = np.concatenate(([0.0], np.cumsum(x[::-1][:max_lag])))
    num = (
        cross
        - mean * (2.0 * total - head_p - tail_p)
        + (n - p) * mean * mean
    )
    return num / denom
