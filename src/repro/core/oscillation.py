"""Oscillatory-pattern detection on autocorrelograms (Section IV-D).

An oscillation is *periodicity* in the event train: the autocorrelogram
shows peaks of significant height at (roughly) evenly spaced lags,
separated by anti-correlated troughs. A covert cache channel's
conflict-miss identifier train is close to a square wave (runs of 'T→S'
then 'S→T' identifiers, one per covert set), whose correlogram is a
triangle wave: strong peaks at multiples of the wavelength with deep dips
between them.

The detector extracts prominent local maxima above a height floor and
accepts either of two oscillation signatures:

- a *periodic peak train*: several regularly spaced prominent peaks
  covering a substantial part of the lag range; or
- a *dominant oscillation*: at least one strong peak preceded by genuine
  anti-correlation (the correlogram dips at the half-wavelength), which is
  what a long-wavelength square-wave train produces when the lag range
  only fits one or two wavelengths.

Strong-but-decaying short-lag correlation (benign programs with bursty
phases) produces neither: no anti-correlation dip and no persistent peak
train. The paper's webserver shows brief periodicity between lags ~120
and ~180 that dies out — rejected by the coverage requirement and the
height floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import DetectionError

#: The height floor's default. Real cache channels in the paper score peak
#: heights of ~0.85-0.95; the 0.1 bps channel at a full-quantum window
#: shows periodicity whose magnitudes "do not show significant strength",
#: which the floor rejects until the window is narrowed (Figure 11).
DEFAULT_MIN_PEAK_HEIGHT = 0.45
#: A peak train: at least this many peaks, spacing std/mean at most
#: ``SPACING_TOLERANCE``, the last peak at this fraction of the lag range
#: or beyond.
MIN_PEAKS = 3
SPACING_TOLERANCE = 0.25
MIN_COVERAGE = 0.4
#: A dominant oscillation: a peak this high after a trough this deep. A
#: genuine long-wavelength oscillation anti-correlates deeply at the
#: half-wavelength (a covert square-wave train dips below -0.8); benign
#: bursty correlation decays without crossing well below zero.
DOMINANT_PEAK_HEIGHT = 0.65
DIP_THRESHOLD = -0.3
#: :func:`find_peaks`: how far a peak must rise above the trough before
#: it, how close two peaks may be (in lags), and the width of the moving
#: average it smooths the correlogram with.
MIN_PROMINENCE = 0.08
MIN_SEPARATION = 8
SMOOTH_WIDTH = 5


def _smooth(values: np.ndarray) -> np.ndarray:
    if values.size < SMOOTH_WIDTH:
        return values.astype(np.float64)
    kernel = np.ones(SMOOTH_WIDTH)
    summed = np.convolve(values.astype(np.float64), kernel, mode="same")
    # Normalize by the actual window size at each position so the edges are
    # not artificially depressed (which would fabricate early local maxima).
    norm = np.convolve(np.ones(values.size), kernel, mode="same")
    return summed / norm


def find_peaks(
    acf: np.ndarray, min_height: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Prominent local maxima of the (lightly smoothed) correlogram.

    Lag 0 (always 1.0) is excluded. A candidate must rise at least
    :data:`MIN_PROMINENCE` above the lowest point between it and the
    previous accepted peak (or lag 0), which filters the small ripples
    noise etches onto a triangle-wave correlogram. Peaks closer than
    :data:`MIN_SEPARATION` lags keep only the higher one. Returns
    ``(lags, heights)`` with heights taken from the raw correlogram.
    """
    arr = np.asarray(acf, dtype=np.float64)
    if arr.size < 3:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    smooth = _smooth(arr)
    interior = smooth[1:-1]
    is_max = (
        (interior >= smooth[:-2])
        & (interior > smooth[2:])
        & (arr[1:-1] >= min_height)
    )
    candidates = np.nonzero(is_max)[0] + 1
    # Skip the smoothing-edge artifact right at the start of the range.
    candidates = candidates[candidates >= max(2, SMOOTH_WIDTH)]
    kept = []
    if candidates.size:
        # The trough before each candidate is the minimum of ``smooth``
        # over [prev_peak, lag) — a window that always starts and ends on
        # a candidate boundary (or lag 0). One vectorized reduceat pass
        # precomputes the minima of the inter-candidate segments; the
        # accept loop then combines whole segments in O(1) per candidate
        # instead of rescanning up to max_lag values each time.
        bounds = np.concatenate(([0], candidates))
        seg_min = np.minimum.reduceat(smooth, bounds)[:-1]
        run_min = np.inf
        for k in range(candidates.size):
            lag = int(candidates[k])
            run_min = min(run_min, float(seg_min[k]))
            if smooth[lag] - run_min < MIN_PROMINENCE:
                continue
            if kept and lag - kept[-1] < MIN_SEPARATION:
                if arr[lag] > arr[kept[-1]]:
                    kept[-1] = lag
                    run_min = np.inf
                continue
            kept.append(lag)
            run_min = np.inf
    kept_arr = np.array(kept, dtype=np.int64)
    return kept_arr, arr[kept_arr] if kept_arr.size else np.zeros(0)


@dataclass(frozen=True)
class OscillationAnalysis:
    """Outcome of oscillation detection on one correlogram."""

    acf: np.ndarray
    peak_lags: np.ndarray
    peak_heights: np.ndarray
    #: Estimated oscillation wavelength in events (0 when aperiodic). For a
    #: cache channel this lands near the number of cache sets used.
    dominant_period: float
    #: Relative regularity of peak spacing (0 = perfectly periodic).
    spacing_irregularity: float
    #: Fraction of the lag range covered by the periodic peak sequence.
    coverage: float
    #: Deepest trough before the first peak (anti-correlation evidence).
    min_dip: float
    #: Periodicity present with sufficiently high peaks.
    significant: bool

    @property
    def max_peak(self) -> float:
        if self.peak_heights.size == 0:
            return 0.0
        return float(self.peak_heights.max())


def analyze_autocorrelogram(
    acf: np.ndarray, min_peak_height: float = DEFAULT_MIN_PEAK_HEIGHT
) -> OscillationAnalysis:
    """Decide whether a correlogram exhibits a significant oscillation.

    Signature 1 (peak train): at least :data:`MIN_PEAKS` prominent peaks
    of height >= ``min_peak_height``, regularly spaced (std/mean at most
    :data:`SPACING_TOLERANCE`), covering >= :data:`MIN_COVERAGE` of the
    lag range.

    Signature 2 (dominant oscillation): a peak of height >=
    :data:`DOMINANT_PEAK_HEIGHT` at some lag whose preceding trough dips
    to :data:`DIP_THRESHOLD` or below — true alternation, not slow decay.
    """
    arr = np.asarray(acf, dtype=np.float64)
    if arr.size < 4:
        raise DetectionError("correlogram too short for oscillation analysis")
    lags, heights = find_peaks(arr, min_peak_height)
    if lags.size == 0:
        return OscillationAnalysis(
            acf=arr,
            peak_lags=lags,
            peak_heights=heights,
            dominant_period=0.0,
            spacing_irregularity=0.0,
            coverage=0.0,
            min_dip=float(arr[1:].min()) if arr.size > 1 else 0.0,
            significant=False,
        )

    # Anti-correlation evidence: the deepest trough before the *highest*
    # peak (using the first peak would let a small early ripple hide the
    # square-wave dip at the half-wavelength).
    top_peak = int(lags[int(np.argmax(heights))])
    min_dip = float(arr[1:top_peak].min()) if top_peak > 1 else 0.0
    coverage = float(lags[-1] / (arr.size - 1))

    if lags.size >= 2:
        spacings = np.diff(lags.astype(np.float64))
        mean_spacing = float(spacings.mean())
        irregularity = (
            float(spacings.std() / mean_spacing) if mean_spacing else 0.0
        )
        period = mean_spacing
    else:
        irregularity = 0.0
        period = float(lags[0])

    peak_train = (
        lags.size >= MIN_PEAKS
        and irregularity <= SPACING_TOLERANCE
        and coverage >= MIN_COVERAGE
    )
    dominant = bool(
        (heights >= DOMINANT_PEAK_HEIGHT).any() and min_dip <= DIP_THRESHOLD
    )
    return OscillationAnalysis(
        acf=arr,
        peak_lags=lags,
        peak_heights=heights,
        dominant_period=period,
        spacing_irregularity=irregularity,
        coverage=coverage,
        min_dip=min_dip,
        significant=bool(peak_train or dominant),
    )
