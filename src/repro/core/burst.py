"""Burst-pattern analysis of event-density histograms (Section IV-B, 3-4).

Step 3 locates the *threshold density*: scanning the histogram left to
right, the first bin that is smaller than its predecessor and no larger
than its successor; if no such valley exists, the point where the slope of
a fitted (smoothed) curve becomes gentle. Everything at or beyond the
threshold is the candidate *burst distribution*.

Step 4 scores the burst distribution with the likelihood ratio — the
number of samples in the burst distribution divided by the total samples,
with bin 0 excluded (zero-density windows carry no contention). Real
covert channels measure ≥ 0.9 even at 0.1 bps; benign programs stay below
0.5, which the paper adopts as the conservative detection threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import LIKELIHOOD_RATIO_THRESHOLD
from repro.errors import DetectionError
from repro.util.stats import histogram_mean

#: The fallback threshold is the first bin where the smoothed slope
#: falls to this fraction of its steepest.
GENTLE_SLOPE_FRACTION = 0.05


def _moving_average(values: np.ndarray, width: int = 3) -> np.ndarray:
    if values.size < width:
        return values.astype(np.float64)
    kernel = np.ones(width) / width
    return np.convolve(values.astype(np.float64), kernel, mode="same")


def find_threshold_bin(hist: np.ndarray) -> Optional[int]:
    """The paper's threshold-density rule.

    Primary rule: the first bin ``i >= 1`` with ``hist[i] < hist[i-1]`` and
    ``hist[i] <= hist[i+1]``. Fallback: the first bin where the absolute
    slope of the smoothed histogram falls below
    :data:`GENTLE_SLOPE_FRACTION` of its maximum (the "slope of the
    fitted curve becomes gentle" case, which handles monotonically
    decaying histograms). Returns None for histograms with fewer than
    three bins of support.
    """
    arr = np.asarray(hist, dtype=np.float64)
    if arr.size < 3:
        return None
    inner = arr[1:-1]
    valleys = np.nonzero((inner < arr[:-2]) & (inner <= arr[2:]))[0]
    if valleys.size:
        return int(valleys[0]) + 1
    smooth = _moving_average(arr)
    slopes = np.abs(np.diff(smooth))
    max_slope = slopes.max()
    if max_slope == 0:
        return None
    gentle = np.nonzero(slopes[1:] <= GENTLE_SLOPE_FRACTION * max_slope)[0]
    if gentle.size:
        return int(gentle[0]) + 1
    return None


def likelihood_ratio(hist: np.ndarray, threshold_bin: int) -> float:
    """Samples at/above the threshold bin over all samples, excluding bin 0.

    Bin 0 is omitted because zero-event windows do not contribute to any
    contention (footnote 3 of the paper).
    """
    arr = np.asarray(hist, dtype=np.float64)
    if not 1 <= threshold_bin < arr.size:
        raise DetectionError(
            f"threshold bin {threshold_bin} outside 1..{arr.size - 1}"
        )
    population = arr[1:].sum()
    if population == 0:
        return 0.0
    return float(arr[threshold_bin:].sum() / population)


@dataclass(frozen=True)
class BurstAnalysis:
    """Outcome of burst-pattern analysis on one density histogram."""

    hist: np.ndarray
    threshold_bin: Optional[int]
    likelihood_ratio: float
    nonburst_mean: float
    burst_mean: float
    #: Burst structure present: a second distribution exists to the right of
    #: the threshold with mean density above 1 event per Δt.
    has_bursts: bool
    #: Burst structure is *significant*: has_bursts and the likelihood ratio
    #: clears the detection threshold (0.5).
    significant: bool


def analyze_histogram(hist: np.ndarray) -> BurstAnalysis:
    """Run steps 3-4 on a density histogram.

    Splits the histogram at the threshold density, computes the likelihood
    ratio of the burst (right) distribution, and checks the paper's
    two-distribution condition: non-burst mean below 1.0, burst mean above
    1.0 events per Δt. The burst distribution is significant when its
    likelihood ratio also reaches
    :data:`~repro.config.LIKELIHOOD_RATIO_THRESHOLD`.
    """
    arr = np.asarray(hist, dtype=np.int64)
    if arr.size < 3:
        raise DetectionError(
            f"density histogram needs at least 3 bins, got {arr.size}"
        )
    if arr.min() < 0:
        raise DetectionError("histogram frequencies cannot be negative")
    threshold = find_threshold_bin(arr)
    if threshold is None:
        return BurstAnalysis(
            hist=arr,
            threshold_bin=None,
            likelihood_ratio=0.0,
            nonburst_mean=histogram_mean(arr),
            burst_mean=0.0,
            has_bursts=False,
            significant=False,
        )
    nonburst = arr.copy()
    nonburst[threshold:] = 0
    burst = arr.copy()
    burst[:threshold] = 0
    nonburst_mean = histogram_mean(nonburst)
    burst_mean = histogram_mean(burst)
    lr = likelihood_ratio(arr, threshold)
    has_bursts = burst.sum() > 0 and burst_mean > 1.0 and nonburst_mean < 1.0
    return BurstAnalysis(
        hist=arr,
        threshold_bin=threshold,
        likelihood_ratio=lr,
        nonburst_mean=nonburst_mean,
        burst_mean=burst_mean,
        has_bursts=has_bursts,
        significant=bool(has_bursts and lr >= LIKELIHOOD_RATIO_THRESHOLD),
    )
