"""Percentile rules shared by the workloads and the runner."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only as high as leaves this many samples
#: beyond it; fewer samples pull it down toward the median.
MIN_BEYOND = 10


def percentile(values, p):
    """The ``p``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile_rank(n, p):
    """The highest percentile <= ``p`` with ``MIN_BEYOND`` samples beyond it.

    Never below the median: with fewer than ``2 * MIN_BEYOND`` samples the
    tail cannot be resolved and the median is reported instead.
    """
    if n <= 0:
        raise ValueError("percentile of no samples")
    return max(50.0, min(float(p), 100.0 * (1.0 - MIN_BEYOND / n)))


def tail(values, p):
    """``(value, percentile actually used, sample count)`` for a tail."""
    used = tail_percentile_rank(len(values), p)
    return percentile(values, used), used, len(values)


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
