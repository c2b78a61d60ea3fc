"""Event trains: the input representation of both detectors.

An *event train* is a uni-dimensional time series marking when indicator
events occurred (Figure 4 of the paper). :class:`EventTrain` holds
explicit cycle timestamps. A cache conflict-miss train also carries the
(replacer, victim) context pair of each event; :func:`dominant_pair_series`
maps the dominant pair's two directions onto the 0/1 identifiers the
oscillation detector autocorrelates (" 'S→T' is assigned 0 and 'T→S' is
assigned 1 ").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import CONTEXT_ID_BITS
from repro.errors import DetectionError


class EventTrain:
    """Sorted event timestamps with windowing and density helpers."""

    def __init__(self, times: np.ndarray):
        arr = np.asarray(times, dtype=np.int64)
        self.times = np.sort(arr)

    @property
    def count(self) -> int:
        return int(self.times.size)

    @property
    def span(self) -> int:
        """Cycles between first and last event (0 for < 2 events)."""
        if self.count < 2:
            return 0
        return int(self.times[-1] - self.times[0])

    def slice(self, t0: int, t1: int) -> "EventTrain":
        """Events within the half-open window ``[t0, t1)``."""
        lo = np.searchsorted(self.times, t0, side="left")
        hi = np.searchsorted(self.times, t1, side="left")
        return EventTrain(self.times[lo:hi])

    def density_counts(self, dt: int, t0: int, t1: int) -> np.ndarray:
        """Event count in each Δt window tiling ``[t0, t1)``."""
        if dt <= 0:
            raise DetectionError(f"Δt must be positive, got {dt}")
        if t1 <= t0:
            raise DetectionError(f"empty window [{t0}, {t1})")
        n_windows = -(-(t1 - t0) // dt)
        sliced = self.slice(t0, t1)
        if sliced.count == 0:
            return np.zeros(n_windows, dtype=np.int64)
        idx = (sliced.times - t0) // dt
        return np.bincount(idx, minlength=n_windows).astype(np.int64)

    def __repr__(self) -> str:
        return f"EventTrain(n={self.count}, span={self.span})"


def dominant_pair_series(
    replacers: np.ndarray, victims: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Extract the dominant candidate covert pair's 0/1 event subsequence.

    Covert cache communication happens between *one* ordered pair of
    contexts and its reverse (the trojan and spy replacing each other).
    This finds the most frequent unordered cross-context pair, keeps only
    its events (both directions), labels one direction 0 and the other 1
    (the paper's 'S→T' = 0 / 'T→S' = 1), and returns
    ``(labels, event_indices, (ctx_a, ctx_b))``. ``event_indices`` maps
    back into the input arrays. Same-context events never form a pair.
    A pair packs into ``lo << CONTEXT_ID_BITS | hi``, so ids must fit in
    :data:`~repro.config.CONTEXT_ID_BITS` bits; the taps and decoders
    that feed this function refuse any that do not.

    Restricting the oscillation analysis to one candidate pair keeps
    unrelated contexts' conflicts — whose identifier values would
    otherwise add spurious low-frequency structure — out of the series;
    the analysis is run for the dominant pair, which a covert train is
    dominated by.
    """
    reps = np.asarray(replacers, dtype=np.int64)
    vics = np.asarray(victims, dtype=np.int64)
    cross = reps != vics
    if not cross.any():
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, (-1, -1)
    lo = np.minimum(reps, vics)
    hi = np.maximum(reps, vics)
    unordered = (lo << CONTEXT_ID_BITS) | hi
    unordered[~cross] = -1
    candidates, counts = np.unique(unordered[cross], return_counts=True)
    winner = int(candidates[np.argmax(counts)])
    ctx_a = winner >> CONTEXT_ID_BITS
    ctx_b = winner & ((1 << CONTEXT_ID_BITS) - 1)
    member = cross & (unordered == winner)
    indices = np.nonzero(member)[0]
    labels = (reps[indices] == ctx_a).astype(np.int64)
    return labels, indices, (ctx_a, ctx_b)
