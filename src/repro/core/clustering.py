"""Recurrence detection by pattern clustering (Section IV-B, step 5).

A single bursty histogram can be an accident; covert transmission produces
burst patterns that *recur* across observation windows. The paper's
clustering algorithm (1) discretizes each window's event-density histogram
into a string over a small symbol alphabet and (2) aggregates similar
strings with k-means. Clusters whose aggregate histogram carries a
significant burst distribution reveal how often — and how spread over time
— the burst pattern recurs, regardless of burst spacing (so irregular and
low-bandwidth channels still cluster).

The observation horizon is capped at 512 OS quanta (51.2 s) so old
windows do not dilute the histograms of an active channel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CLUSTERING_WINDOW_QUANTA, LIKELIHOOD_RATIO_THRESHOLD
from repro.core.burst import BurstAnalysis, analyze_histogram
from repro.errors import DetectionError
from repro.util.rng import RngLike, make_rng
from repro.util.strings import discretize_histogram


def kmeans(
    points: np.ndarray,
    k: int,
    rng: RngLike = 0,
    max_iters: int = 64,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Plain k-means with k-means++ seeding.

    Returns ``(labels, centroids, inertia)``. Deterministic for a fixed
    seed. Empty clusters are re-seeded on the farthest point.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DetectionError("kmeans needs a non-empty 2-D point matrix")
    n = X.shape[0]
    labels, centroids = _kmeans_rows(
        X, np.ones(n, dtype=np.int64), np.arange(n), k, make_rng(rng),
        max_iters,
    )
    distances = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    inertia = float(distances[np.arange(n), labels].sum())
    return labels, centroids, inertia


def _kmeans_rows(
    rows: np.ndarray,
    counts: np.ndarray,
    inverse: np.ndarray,
    k: int,
    gen: np.random.Generator,
    max_iters: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """k-means over distinct rows, each standing for ``counts[r]`` points.

    ``inverse`` maps each of the n points, in order, to its row; every
    row has at least one point. Returns per-row labels and the
    centroids. The result is the one :func:`kmeans` gives on the n
    expanded points whenever each centroid's weighted sum is exact,
    which holds for integer rows: distances are per-row values, and the
    steps that index points (the k-means++ draws and the empty-cluster
    re-seed) gather per-row values to the n points in order, so the RNG
    sees the same inputs.
    """
    n = inverse.size
    if not 1 <= k <= n:
        raise DetectionError(f"k must be in 1..{n}, got {k}")

    # --- k-means++ seeding
    centroids = np.empty((k, rows.shape[1]), dtype=np.float64)
    centroids[0] = rows[inverse[int(gen.integers(0, n))]]
    closest_sq = ((rows - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        point_sq = closest_sq[inverse]
        total = point_sq.sum()
        if total == 0:
            centroids[j] = rows[inverse[int(gen.integers(0, n))]]
            continue
        idx = int(gen.choice(n, p=point_sq / total))
        centroids[j] = rows[inverse[idx]]
        closest_sq = np.minimum(
            closest_sq, ((rows - centroids[j]) ** 2).sum(axis=1)
        )

    weighted = counts[:, None] * rows
    labels = np.zeros(rows.shape[0], dtype=np.int64)
    for _ in range(max_iters):
        distances = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(
            axis=2
        )
        new_labels = distances.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if not members.any():
                # Re-seed an empty cluster on the farthest point.
                farthest = int(distances.min(axis=1)[inverse].argmax())
                centroids[j] = rows[inverse[farthest]]
            else:
                centroids[j] = (
                    weighted[members].sum(axis=0) / counts[members].sum()
                )
        # Every row has a point, so the point labels are unchanged
        # exactly when the row labels are.
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels, centroids


@dataclass(frozen=True)
class RecurrenceAnalysis:
    """Outcome of the pattern-clustering recurrence check."""

    n_windows: int
    cluster_labels: np.ndarray
    #: Cluster indices whose aggregate histogram has a significant burst
    #: distribution (likelihood ratio >= threshold).
    burst_clusters: Tuple[int, ...]
    #: Per-burst-cluster aggregate burst analyses (parallel to burst_clusters).
    burst_analyses: Tuple[BurstAnalysis, ...]
    #: Windows falling in burst clusters.
    burst_window_indices: np.ndarray
    #: Burst patterns recur: enough burst windows, spread over the horizon.
    recurrent: bool

    @property
    def burst_window_fraction(self) -> float:
        if self.n_windows == 0:
            return 0.0
        return self.burst_window_indices.size / self.n_windows


class PatternHorizon:
    """The last ``max_windows`` window histograms, grouped by pattern.

    Each pushed histogram is discretized once. Windows that discretize
    to the same symbol string share one pattern entry holding the
    string, its window count and the int64 sum of its windows'
    histograms; entries are updated as windows enter and leave the
    horizon, and an entry is freed when its last window leaves. A
    running int64 total covers every retained window.

    :meth:`analyze` therefore clusters the distinct patterns, weighted
    by count, instead of every window, and sums pattern aggregates
    instead of window histograms. Symbols are integers 0-3, so every
    weighted centroid sum is an integer of at most 3 x ``max_windows``,
    exact in float64, and the result is bit-identical to clustering the
    windows one by one (docs/ALGORITHMS.md, section 5).

    A window whose histogram equals the last one pushed for its pattern
    shares that array, so a steady channel's horizon holds a few arrays
    rather than ``max_windows``.
    """

    def __init__(self, max_windows: int = CLUSTERING_WINDOW_QUANTA):
        if max_windows < 1:
            raise DetectionError(
                f"horizon needs at least one window, got {max_windows}"
            )
        self.max_windows = max_windows
        #: Retained window histograms, oldest first (read-only: equal
        #: histograms of one pattern share an array).
        self.histograms: Deque[np.ndarray] = deque()
        #: Pattern slot and quantum of each retained window.
        self._slots: Deque[int] = deque()
        self._quanta: Deque[int] = deque()
        self._pushed = 0
        #: Pattern state per slot; a slot is live while its count is > 0.
        self._slot_of: Dict[bytes, int] = {}
        self._keys: List[bytes] = []
        self._latest: List[Optional[np.ndarray]] = []
        self._free: List[int] = []
        self._counts = np.zeros(0, dtype=np.int64)
        self._rows = np.zeros((0, 0), dtype=np.float64)
        self._aggregates = np.zeros((0, 0), dtype=np.int64)
        #: Sum of every retained window's histogram.
        self.total = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.histograms)

    @property
    def n_patterns(self) -> int:
        """Distinct discretized patterns among the retained windows."""
        return len(self._slot_of)

    def windows(self) -> Iterator[Tuple[np.ndarray, int]]:
        """``(histogram, quantum)`` of each retained window, oldest first."""
        return zip(self.histograms, self._quanta)

    def push(
        self, hist: np.ndarray, quantum: Optional[int] = None
    ) -> np.ndarray:
        """Add one window, evicting the oldest one at the horizon.

        ``quantum`` labels the window for :meth:`windows`; it defaults to
        the number of windows pushed before this one. Returns the array
        the horizon retains for the window.
        """
        hist = np.asarray(hist, dtype=np.int64)
        if self._pushed and hist.size != self.total.size:
            raise DetectionError("all window histograms must share bin count")
        row = discretize_histogram(hist)
        key = row.tobytes()
        if not self._pushed:
            self._start(hist.size)
        elif len(self.histograms) == self.max_windows:
            self._evict()
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._new_slot(key)
            self._rows[slot] = row
        elif np.array_equal(hist, self._latest[slot]):
            hist = self._latest[slot]
        self._latest[slot] = hist
        self._counts[slot] += 1
        self._aggregates[slot] += hist
        self.total += hist
        self.histograms.append(hist)
        self._slots.append(slot)
        self._quanta.append(self._pushed if quantum is None else int(quantum))
        self._pushed += 1
        return hist

    def _start(self, width: int) -> None:
        self._rows = np.zeros((1, width), dtype=np.float64)
        self._aggregates = np.zeros((1, width), dtype=np.int64)
        self._counts = np.zeros(1, dtype=np.int64)
        self.total = np.zeros(width, dtype=np.int64)

    def _new_slot(self, key: bytes) -> int:
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
        else:
            slot = len(self._keys)
            self._keys.append(key)
            self._latest.append(None)
            if slot == self._counts.size:  # full: double the capacity
                self._counts, self._rows, self._aggregates = (
                    np.concatenate((a, np.zeros_like(a)))
                    for a in (self._counts, self._rows, self._aggregates)
                )
        self._slot_of[key] = slot
        return slot

    def _evict(self) -> None:
        hist = self.histograms.popleft()
        slot = self._slots.popleft()
        self._quanta.popleft()
        self.total -= hist
        self._aggregates[slot] -= hist
        self._counts[slot] -= 1
        if self._counts[slot] == 0:
            del self._slot_of[self._keys[slot]]
            self._latest[slot] = None
            self._free.append(slot)

    def analyze(
        self,
        k: Optional[int] = None,
        lr_threshold: float = LIKELIHOOD_RATIO_THRESHOLD,
        min_burst_windows: int = 2,
        rng: RngLike = 0,
    ) -> RecurrenceAnalysis:
        """Cluster the retained windows and decide whether bursts recur.

        See :func:`analyze_recurrence` for the rule.
        """
        n = len(self.histograms)
        if n == 0:
            raise DetectionError("need at least one window histogram")
        live = np.flatnonzero(self._counts)
        remap = np.empty(self._counts.size, dtype=np.intp)
        remap[live] = np.arange(live.size)
        inverse = remap[np.fromiter(self._slots, dtype=np.intp, count=n)]
        k_eff = k if k is not None else max(1, min(4, live.size))
        if k_eff == 1:
            # One cluster: k-means labels every point 0 regardless of
            # seeding (argmin over a single column), so skip it outright —
            # the centroid is never used. Same labels, bit for bit.
            row_labels = np.zeros(live.size, dtype=np.int64)
        else:
            row_labels, _centroids = _kmeans_rows(
                self._rows[live], self._counts[live], inverse, k_eff,
                make_rng(rng), max_iters=64,
            )

        aggregates = self._aggregates[live]
        burst_rows = np.zeros(live.size, dtype=bool)
        burst_clusters: List[int] = []
        analyses: List[BurstAnalysis] = []
        for j in range(k_eff):
            members = row_labels == j
            if not members.any():
                continue
            analysis = analyze_histogram(
                aggregates[members].sum(axis=0), lr_threshold=lr_threshold
            )
            if analysis.significant:
                burst_clusters.append(j)
                analyses.append(analysis)
                burst_rows |= members

        burst_windows = np.flatnonzero(burst_rows[inverse])
        recurrent = bool(
            burst_windows.size >= min_burst_windows
            and (
                burst_windows.size > 1
                and (burst_windows[-1] - burst_windows[0])
                >= burst_windows.size
                or burst_windows.size >= max(2, n // 2)
            )
        )
        return RecurrenceAnalysis(
            n_windows=n,
            cluster_labels=row_labels[inverse],
            burst_clusters=tuple(burst_clusters),
            burst_analyses=tuple(analyses),
            burst_window_indices=burst_windows,
            recurrent=recurrent,
        )


def analyze_recurrence(
    histograms: Sequence[np.ndarray],
    k: Optional[int] = None,
    lr_threshold: float = LIKELIHOOD_RATIO_THRESHOLD,
    min_burst_windows: int = 2,
    rng: RngLike = 0,
    max_windows: int = CLUSTERING_WINDOW_QUANTA,
) -> RecurrenceAnalysis:
    """Cluster per-window histograms and decide whether bursts recur.

    ``histograms`` is one event-density histogram per observation window
    (most recent windows are kept if more than ``max_windows`` are given).
    A channel is recurrent when the windows that land in burst-significant
    clusters number at least ``min_burst_windows`` and are not all
    contiguous (a single isolated burst episode does not recur).

    Streaming callers keep a :class:`PatternHorizon` instead, so that a
    verdict does not re-discretize the whole horizon.
    """
    if not histograms:
        raise DetectionError("need at least one window histogram")
    horizon = PatternHorizon(max_windows)
    for hist in histograms[-max_windows:]:
        horizon.push(hist)
    return horizon.analyze(
        k=k,
        lr_threshold=lr_threshold,
        min_burst_windows=min_burst_windows,
        rng=rng,
    )
