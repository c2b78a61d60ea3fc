"""References for the oscillation analyzer's correlograms.

:func:`autocorrelogram` is the FFT estimator of the paper's r_p over a
lag range, for any real series. The figures and the ablation ran it
beside the analyzer's :func:`repro.core.autocorr.binary_autocorrelogram`
until that exact 0/1 kernel became the only one in ``src/``; the tests
keep it as the reference for general series.

Until each observation window autocorrelated only its dominant pair,
``OscillationAnalyzer`` gave every cross-context pair of a window its
own :class:`RunningAutocorrelogram`, fed it the pair's labels once and
read the dominant pair's ``correlogram()`` when the window closed. The
class below is that estimator, unchanged, and :func:`pair_window_acf`
is that per-pair window path. The parity tests compare
:func:`repro.core.autocorr.binary_autocorrelogram` and the analyzer with
them bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DetectionError


def autocorrelogram(x: np.ndarray, max_lag: int) -> np.ndarray:
    """r_p for p = 0 .. max_lag (inclusive), as a float array.

    ``max_lag`` is clipped to ``len(x) - 1``. For a constant series the
    correlogram is all ones: it is perfectly self-similar at every lag.
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


class RunningAutocorrelogram:
    """Incrementally maintained autocorrelogram (running-sums estimator).

    The streaming counterpart of :func:`autocorrelogram`: the series
    arrives in arbitrary chunks and only *running sums* are kept — Σx,
    the lagged cross products ``C_p = Σ_i x_i · x_{i-p}``, and the first
    and last ``max_lag`` values (for the end-correction terms of the
    paper's r_p). Appending ``m`` values costs one C-level sliding
    correlation — O(max_lag · m) however the series is chunked,
    independent of how long it already is; ``correlogram()`` reads the
    current r_0..r_max_lag in
    O(max_lag). Memory is O(max_lag) no matter how many events stream in.

    For integer-valued series (the detector's 0/1 identifier trains)
    every running sum is exact, so the result matches the batch FFT
    estimator to floating-point round-off; the FFT path stays available
    as the batch cross-check.
    """

    def __init__(self, max_lag: int):
        if max_lag < 0:
            raise DetectionError(f"max_lag must be non-negative, got {max_lag}")
        self.max_lag = max_lag
        self._n = 0
        self._sum = 0.0
        #: cross[p] = Σ_{i > p} x_i · x_{i-p}; cross[0] = Σ x_i².
        self._cross = np.zeros(max_lag + 1, dtype=np.float64)
        self._head = np.zeros(0, dtype=np.float64)
        self._tail = np.zeros(0, dtype=np.float64)

    @property
    def n(self) -> int:
        """Number of samples consumed so far."""
        return self._n

    def _advance_window(self, y: np.ndarray, y_sum: float) -> None:
        """Slide the head/tail windows and running sums past chunk ``y``.

        The single shared implementation of the end-correction window
        bookkeeping: both :meth:`push` and :meth:`push_batch` delegate
        here after updating the cross products, so the two entry points
        cannot drift apart (the property tests additionally pin both to
        the O(n·lags) reference estimator).
        """
        m = y.size
        self._sum += y_sum
        self._n += m
        if self._head.size < self.max_lag:
            need = self.max_lag - self._head.size
            self._head = np.concatenate([self._head, y[:need]])
        if not self.max_lag:
            return
        t = self._tail.size
        if t == self.max_lag and m == 1:
            # Full tail, one sample: shift in place, no reallocation.
            self._tail[:-1] = self._tail[1:]
            self._tail[-1] = y[0]
            return
        z = np.concatenate([self._tail, y])
        self._tail = z[z.size - min(self._n, self.max_lag) :]

    def push(self, value: float) -> None:
        """Append a single sample.

        Thin adapter over the same state transitions as
        :meth:`push_batch`: for one sample the sliding correlation
        collapses to ``ΔC_p = v · tail[t − p]``, a single vector
        multiply-accumulate. Arithmetic is identical (the same products,
        added once), so results match ``push_batch([value])`` bit for
        bit; the window slide is shared code.
        """
        v = float(value)
        t = self._tail.size
        k = t if t < self.max_lag else self.max_lag
        self._cross[0] += v * v
        if k:
            self._cross[1 : k + 1] += v * self._tail[t - k :][::-1]
        self._advance_window(np.array([v], dtype=np.float64), v)

    def push_batch(self, values: np.ndarray) -> None:
        """Append a chunk of samples (order is the series order)."""
        y = np.asarray(values, dtype=np.float64).ravel()
        if y.size == 0:
            return
        m = y.size
        t = self._tail.size
        z = np.concatenate([self._tail, y])
        p_hi = min(self.max_lag, m - 1 + t)
        if m <= 4 * (self.max_lag + 1):
            # ΔC_p = Σ_j y[j] · z[t + j − p]: one sliding correlation
            # covers every lag at once. np.correlate(z, y, 'full')[k] =
            # Σ_j z[j + k − (m−1)] y[j], so lag p lives at index
            # k = m − 1 + t − p.
            c = np.correlate(z, y, mode="full")
            self._cross[: p_hi + 1] += c[m - 1 + t - p_hi : m + t][::-1]
        else:
            # Chunk much longer than the lag range: the full correlation
            # would cost O(m²); the max_lag + 1 needed lags cost O(m)
            # each as direct dot products (same products, same sums).
            for p in range(p_hi + 1):
                lo = p - t
                if lo <= 0:
                    self._cross[p] += np.dot(y, z[t - p : t - p + m])
                else:
                    self._cross[p] += np.dot(y[lo:], z[: m - lo])
        self._advance_window(y, float(y.sum()))

    #: Backwards-compatible name for the batch kernel.
    extend = push_batch

    def correlogram(self) -> np.ndarray:
        """Current r_p for p = 0 .. min(max_lag, n−1), as in the batch path.

        Expanding ``Σ (x_i − x̄)(x_{i+p} − x̄)`` gives
        ``C_p − x̄·(2Σx − head_p − tail_p) + (n−p)·x̄²`` where ``head_p`` /
        ``tail_p`` are the sums of the first/last ``p`` samples — all held
        as running state, so no sample replay is needed.
        """
        n = self._n
        if n < 2:
            raise DetectionError("autocorrelogram needs at least 2 samples")
        max_lag = min(self.max_lag, n - 1)
        mean = self._sum / n
        denom = float(self._cross[0]) - n * mean * mean
        if denom <= 0.0:
            # Constant series: perfectly self-similar at every lag.
            return np.ones(max_lag + 1, dtype=np.float64)
        p = np.arange(max_lag + 1)
        head_p = np.concatenate(([0.0], np.cumsum(self._head)))[p]
        tail_p = np.concatenate(([0.0], np.cumsum(self._tail[::-1])))[p]
        num = (
            self._cross[: max_lag + 1]
            - mean * (2.0 * self._sum - head_p - tail_p)
            + (n - p) * mean * mean
        )
        return num / denom


def pair_window_acf(
    replacers: np.ndarray,
    victims: np.ndarray,
    max_lag: int,
    min_train_events: int,
    context_id_bits: int = 3,
) -> Tuple[int, Optional[np.ndarray]]:
    """One window through the per-pair path: ``(train length, acf)``.

    Every cross-context pair gets its own running estimator; the window
    reads the dominant pair's (largest count, smallest packed id on
    ties). The acf is None when the window is skipped: no cross-context
    record, or a dominant train too short or without both directions.
    The train length is 0 when there is no cross-context record.
    """
    reps = np.asarray(replacers, dtype=np.int64)
    vics = np.asarray(victims, dtype=np.int64)
    cross = reps != vics
    if not cross.any():
        return 0, None
    reps = reps[cross]
    vics = vics[cross]
    lo = np.minimum(reps, vics)
    hi = np.maximum(reps, vics)
    packed = (lo << context_id_bits) | hi
    pairs: Dict[int, Tuple[int, int, RunningAutocorrelogram]] = {}
    for key in np.unique(packed):
        sel = packed == key
        labels = (reps[sel] == (int(key) >> context_id_bits)).astype(
            np.int64
        )
        acf = RunningAutocorrelogram(max_lag)
        acf.push_batch(labels)
        pairs[int(key)] = (labels.size, int(labels.sum()), acf)
    key = min(pairs, key=lambda k: (-pairs[k][0], k))
    count, ones, acf = pairs[key]
    if not (count >= min_train_events and 4 <= ones <= count - 4):
        return count, None
    return count, acf.correlogram()
