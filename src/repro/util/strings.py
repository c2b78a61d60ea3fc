"""Histogram discretization for the pattern-clustering step.

CC-Hunter's recurrence check (Section IV-B step 5) first "discretizes the
event density histograms into strings" and then clusters similar strings
with k-means. The discretization maps each histogram bin's frequency onto a
small symbol alphabet on a logarithmic scale, so that the *shape* of the
histogram (where its modes sit) dominates over absolute magnitudes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DetectionError

#: Symbols per bin: 0 for an empty bin, 1-3 for the log-frequency range.
#: The clustering step's exactness argument (docs/ALGORITHMS.md,
#: section 5) bounds its weighted sums with this value.
SYMBOL_LEVELS = 4


def discretize_histogram(hist: Sequence[float]) -> np.ndarray:
    """Map bin frequencies to integer symbols ``0 .. SYMBOL_LEVELS-1``.

    Symbol 0 means the bin is empty; the remaining levels split the
    log-frequency range of the histogram evenly. A histogram with all-equal
    non-zero bins discretizes to all top-level symbols, preserving the
    intuition that only *relative* frequency structure matters.
    """
    arr = np.asarray(hist, dtype=np.float64)
    if arr.size == 0:
        raise DetectionError("cannot discretize an empty histogram")
    if arr.min() < 0:
        raise DetectionError("histogram frequencies cannot be negative")
    symbols = np.zeros(arr.size, dtype=np.int64)
    nonzero = arr > 0
    if not nonzero.any():
        return symbols
    logs = np.log1p(arr[nonzero])
    top = logs.max()
    if top == 0:
        symbols[nonzero] = SYMBOL_LEVELS - 1
        return symbols
    # Scale log-frequencies into 1 .. SYMBOL_LEVELS-1 (0 is reserved for
    # empty bins).
    scaled = 1 + np.floor(
        logs / top * (SYMBOL_LEVELS - 1 - 1e-12)
    ).astype(np.int64)
    symbols[nonzero] = np.minimum(scaled, SYMBOL_LEVELS - 1)
    return symbols
