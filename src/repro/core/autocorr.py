"""Autocorrelation of event trains (Section IV-D).

Given measurements ``X_1 .. X_N``, the autocorrelation coefficient at lag
``p`` with mean ``X̄`` is::

    r_p = sum_{i=1}^{n-p} (X_i - X̄)(X_{i+p} - X̄) / sum_{i=1}^{n} (X_i - X̄)^2

``r_1`` alone detects non-randomness; an *autocorrelogram* (r_p over a lag
range) reveals periodicity: a cache covert channel's conflict-miss
identifier sequence repeats with a wavelength near the number of cache
sets used for transmission, producing high peaks at that lag and its
multiples.

:func:`binary_autocorrelogram` is the one kernel, shared by the
detector and the figures: the detector's identifier trains are 0/1, and
their lagged sums are exact integers over the needed lags only.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DetectionError


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
    first / last ``p`` labels. A constant train is perfectly
    self-similar: its correlogram is all ones.
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
