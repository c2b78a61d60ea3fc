"""Former implementations of recurrence clustering, kept as references.

Until the per-pattern horizon, ``kmeans`` ran over every point and
``analyze_recurrence`` re-discretized, re-stacked and re-clustered the
whole window list on every call. Until rows were cut to the columns
that hold a symbol, ``_rows`` built every pattern's full 128-column row
with one ``frombuffer`` per key, and ``_kmeans_rows`` and ``_seed``
clustered those rows, updating one centroid at a time. The functions
below are those implementations, unchanged. ``kmeans`` is also the only
float k-means left: the package clusters integer symbol rows only. The
parity tests compare the row core ``repro.core.clustering._kmeans_rows``
and :class:`repro.core.clustering.PatternHorizon` with them bit for
bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CLUSTERING_WINDOW_QUANTA
from repro.core.burst import BurstAnalysis, analyze_histogram
from repro.core.clustering import RecurrenceAnalysis
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
    if not 1 <= k <= n:
        raise DetectionError(f"k must be in 1..{n}, got {k}")
    gen = make_rng(rng)

    # --- k-means++ seeding
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(gen.integers(0, n))
    centroids[0] = X[first]
    closest_sq = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total == 0:
            centroids[j] = X[int(gen.integers(0, n))]
            continue
        probs = closest_sq / total
        idx = int(gen.choice(n, p=probs))
        centroids[j] = X[idx]
        closest_sq = np.minimum(closest_sq, ((X - centroids[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        distances = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        for j in range(k):
            members = X[new_labels == j]
            if members.shape[0] == 0:
                # Re-seed an empty cluster on the farthest point.
                farthest = int(distances.min(axis=1).argmax())
                centroids[j] = X[farthest]
            else:
                centroids[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
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
    centroids. Empty clusters are re-seeded on the farthest point. The
    result is the one plain k-means with k-means++ seeding gives on the
    n expanded points whenever each centroid's weighted sum is exact,
    which holds for integer rows: distances are per-row values, and the
    steps that index points (the k-means++ draws and the empty-cluster
    re-seed) gather per-row values to the n points in order, so the RNG
    sees the same inputs.
    """
    n = inverse.size
    if not 1 <= k <= n:
        raise DetectionError(f"k must be in 1..{n}, got {k}")
    centroids = rows[_seed(rows, inverse, k, gen)]
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


def _seed(
    rows: np.ndarray, inverse: np.ndarray, k: int, gen: np.random.Generator
) -> List[int]:
    """k-means++ seeding: the row of each of the ``k`` initial centroids.

    A point whose row is already a centroid is drawn with probability
    0, so distinct rows are all seeded before any is seeded twice.
    """
    n = inverse.size
    picks = [int(inverse[int(gen.integers(0, n))])]
    closest_sq = ((rows - rows[picks[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        point_sq = closest_sq[inverse]
        total = point_sq.sum()
        if total == 0:
            picks.append(int(inverse[int(gen.integers(0, n))]))
            continue
        picks.append(int(inverse[int(gen.choice(n, p=point_sq / total))]))
        closest_sq = np.minimum(
            closest_sq, ((rows - rows[picks[-1]]) ** 2).sum(axis=1)
        )
    return picks


def _rows(keys: Sequence[bytes]) -> np.ndarray:
    """The float64 symbol rows whose int64 bytes are ``keys``."""
    return np.array(
        [np.frombuffer(key, dtype=np.int64) for key in keys], dtype=np.float64
    )


def analyze_recurrence(
    histograms: Sequence[np.ndarray],
    k: Optional[int] = None,
    min_burst_windows: int = 2,
    rng: RngLike = 0,
    max_windows: int = CLUSTERING_WINDOW_QUANTA,
    features: Optional[Sequence[np.ndarray]] = None,
) -> RecurrenceAnalysis:
    """Cluster per-window histograms and decide whether bursts recur.

    ``histograms`` is one event-density histogram per observation window
    (most recent windows are kept if more than ``max_windows`` are given).
    A channel is recurrent when the windows that land in burst-significant
    clusters number at least ``min_burst_windows`` and are not all
    contiguous (a single isolated burst episode does not recur).

    ``features`` optionally supplies the per-window discretized
    histograms (``discretize_histogram(h)`` for each window, parallel to
    ``histograms``): streaming callers evaluating verdicts every quantum
    discretize each window once at push time instead of re-discretizing
    the whole horizon per evaluation. The result is identical either way.
    """
    if not histograms:
        raise DetectionError("need at least one window histogram")
    hists = [np.asarray(h, dtype=np.int64) for h in histograms[-max_windows:]]
    width = hists[0].size
    for h in hists:
        if h.size != width:
            raise DetectionError("all window histograms must share bin count")
    n = len(hists)

    if features is None:
        feats = [discretize_histogram(h) for h in hists]
    else:
        if len(features) != len(histograms):
            raise DetectionError(
                "features must parallel histograms (one per window)"
            )
        feats = [
            np.asarray(f, dtype=np.int64) for f in features[-max_windows:]
        ]
    # Distinct-row count over integer symbol strings: byte equality is
    # exactly value equality for int64 rows, and hashing is much cheaper
    # than np.unique's lexicographic row sort.
    n_distinct = len({f.tobytes() for f in feats})
    k_eff = k if k is not None else max(1, min(4, n_distinct))
    if k_eff == 1:
        # One cluster: k-means labels every point 0 regardless of
        # seeding (argmin over a single column), so skip it outright —
        # the centroid is never used. Same labels, bit for bit.
        labels = np.zeros(n, dtype=np.int64)
    else:
        feature_matrix = np.stack(feats).astype(np.float64)
        labels, _centroids, _inertia = kmeans(feature_matrix, k_eff, rng=rng)

    burst_clusters: List[int] = []
    analyses: List[BurstAnalysis] = []
    for j in range(k_eff):
        member_idx = np.nonzero(labels == j)[0]
        if member_idx.size == 0:
            continue
        aggregate = np.sum([hists[i] for i in member_idx], axis=0)
        analysis = analyze_histogram(aggregate)
        if analysis.significant:
            burst_clusters.append(j)
            analyses.append(analysis)

    burst_windows = (
        np.nonzero(np.isin(labels, burst_clusters))[0]
        if burst_clusters
        else np.zeros(0, dtype=np.int64)
    )
    recurrent = bool(
        burst_windows.size >= min_burst_windows
        and (
            burst_windows.size > 1
            and (burst_windows[-1] - burst_windows[0]) >= burst_windows.size
            or burst_windows.size >= max(2, n // 2)
        )
    )
    numbered = (labels, tuple(burst_clusters), tuple(analyses), burst_windows)
    return RecurrenceAnalysis(
        n, recurrent, burst_windows.size, analyses, lambda: numbered
    )
