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
from functools import cached_property
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CLUSTERING_WINDOW_QUANTA
from repro.core.burst import BurstAnalysis, analyze_histogram
from repro.errors import DetectionError
from repro.util.strings import discretize_histogram

#: A verdict clusters the live patterns into at most this many clusters.
MAX_CLUSTERS = 4
#: A recurrent channel has at least this many windows in burst clusters.
MIN_BURST_WINDOWS = 2

#: numpy sums at most this many float64 terms with eight interleaved
#: accumulators, ``r_j = a[j] + a[j + 8] + ...``, and splits longer
#: sums in halves.
PAIRWISE_BLOCK = 128


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
    clusters = np.arange(k)[:, None]
    labels = np.zeros(rows.shape[0], dtype=np.int64)
    for _ in range(max_iters):
        distances = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(
            axis=2
        )
        new_labels = distances.argmin(axis=1)
        # Each cluster's weighted sum as one product of integers, so
        # exact in any order of summation.
        members = (new_labels == clusters).astype(np.float64)
        sizes = members @ counts
        centroids = (members @ weighted) / np.maximum(sizes, 1)[:, None]
        empty = sizes == 0
        if empty.any():
            # Re-seed an empty cluster on the farthest point.
            farthest = int(distances.min(axis=1)[inverse].argmax())
            centroids[empty] = rows[inverse[farthest]]
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


def _window_rows(live: Sequence[int], slots: np.ndarray) -> np.ndarray:
    """Each window's row: its slot's position among the ``live`` slots."""
    remap = np.empty(live[-1] + 1, dtype=np.intp)
    remap[live] = np.arange(len(live))
    return remap[slots]


def _rows(keys: Sequence[bytes]) -> np.ndarray:
    """The float64 symbol rows whose int64 bytes are ``keys``, cut to
    the symbol columns that occur.

    Rows of at most ``PAIRWISE_BLOCK`` columns keep the shortest prefix
    that is a multiple of 8, at least 8 wide, and holds every non-zero
    symbol. Every distance and sum k-means takes over the cut rows is
    bit-identical to the full rows' (docs/ALGORITHMS.md, section 5).
    """
    rows = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(
        len(keys), -1
    )
    used = np.flatnonzero(rows.any(axis=0))
    end = used[-1] + 1 if used.size else 0
    width = max(8, -(-end // 8) * 8)
    if width < rows.shape[1] <= PAIRWISE_BLOCK:
        rows = rows[:, :width]
    return rows.astype(np.float64)


class RecurrenceAnalysis:
    """Outcome of the pattern-clustering recurrence check.

    A verdict reads ``n_windows``, ``recurrent``,
    ``burst_window_fraction`` and ``max_likelihood_ratio``, and none of
    them depends on how clusters are numbered. The fields that do —
    ``cluster_labels``, ``burst_clusters``, the order of
    ``burst_analyses`` and ``burst_window_indices`` — only evidence
    reads, so a result of :meth:`PatternHorizon.analyze` builds them on
    first read, from what the horizon held when the result was made:
    ``number()`` returns the four numbered fields, and
    ``burst_analyses`` may come in any order.
    """

    def __init__(
        self, n_windows, recurrent, burst_window_count, burst_analyses, number
    ):
        self.n_windows = n_windows
        #: Burst patterns recur: enough burst windows, spread over the
        #: horizon. Implies at least two burst windows.
        self.recurrent = recurrent
        self.burst_window_count = int(burst_window_count)
        #: Largest likelihood ratio among the burst clusters (0 if none).
        self.max_likelihood_ratio = max(
            (a.likelihood_ratio for a in burst_analyses), default=0.0
        )
        self._number = number

    @cached_property
    def _numbered(self) -> tuple:
        return self._number()

    cluster_labels = property(
        lambda self: self._numbered[0],
        doc="Cluster of each window, oldest first.",
    )
    burst_clusters = property(
        lambda self: self._numbered[1],
        doc="Clusters whose aggregate histogram has a significant burst "
        "distribution (likelihood ratio >= threshold).",
    )
    burst_analyses = property(
        lambda self: self._numbered[2],
        doc="Aggregate burst analysis of each burst cluster, in order.",
    )
    burst_window_indices = property(
        lambda self: self._numbered[3], doc="Windows in burst clusters."
    )

    @property
    def burst_window_fraction(self) -> float:
        if self.n_windows == 0:
            return 0.0
        return self.burst_window_count / self.n_windows


class PatternHorizon:
    """The last ``max_windows`` window histograms, grouped by pattern.

    Each pushed histogram is discretized once. Windows that discretize
    to the same symbol string share one pattern entry holding the
    string, the push index of each of its windows and the int64 sum of
    its windows' histograms; entries are updated as windows enter and
    leave the horizon, and an entry is freed when its last window
    leaves. A running int64 total covers every retained window.

    :meth:`analyze` therefore clusters the distinct patterns, weighted
    by count, instead of every window, and sums pattern aggregates
    instead of window histograms. Symbols are integers 0-3, so every
    weighted centroid sum is an integer of at most 3 x ``max_windows``,
    exact in float64, and the result is bit-identical to clustering the
    windows one by one (docs/ALGORITHMS.md, section 5). With at most
    :data:`MAX_CLUSTERS` live patterns each is its own cluster, so no
    k-means runs and each cluster's burst analysis is its pattern's,
    kept until a push or an eviction changes the pattern: a verdict then
    costs the analyses of the patterns changed since the last one.

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
        self._pushed = 0
        #: Pattern slot of each window in push order; the retained
        #: windows' are the last ``len(self)`` of the first ``_logged``
        #: entries. A full log moves its retained entries to a new array
        #: instead of being overwritten, so a view of logged entries
        #: never changes.
        self._slot_log = np.empty(0, dtype=np.intp)
        self._logged = 0
        #: Pattern state per slot; a slot is live while it has windows.
        self._slot_of: Dict[bytes, int] = {}
        self._keys: List[bytes] = []
        self._latest: List[Optional[np.ndarray]] = []
        #: Push index of each of a slot's retained windows, oldest first.
        self._windows: List[Deque[int]] = []
        #: Burst analysis of a slot's aggregate, or None once a push or
        #: an eviction has changed it.
        self._analyses: List[Optional[BurstAnalysis]] = []
        self._free: List[int] = []
        self._aggregates = np.zeros((0, 0), dtype=np.int64)
        #: Sum of every retained window's histogram.
        self.total = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.histograms)

    @property
    def n_patterns(self) -> int:
        """Distinct discretized patterns among the retained windows."""
        return len(self._slot_of)

    def push(self, hist: np.ndarray) -> np.ndarray:
        """Add one window, evicting the oldest one at the horizon.

        Returns the array the horizon retains for the window.
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
        elif np.array_equal(hist, self._latest[slot]):
            hist = self._latest[slot]
        self._latest[slot] = hist
        self._windows[slot].append(self._pushed)
        self._analyses[slot] = None
        self._aggregates[slot] += hist
        self.total += hist
        if self._logged == self._slot_log.size:
            kept = self._slot_log[self._logged - len(self.histograms):]
            self._slot_log = np.empty(2 * kept.size + 16, dtype=np.intp)
            self._slot_log[:kept.size] = kept
            self._logged = kept.size
        self._slot_log[self._logged] = slot
        self._logged += 1
        self.histograms.append(hist)
        self._pushed += 1
        return hist

    def _start(self, width: int) -> None:
        self._aggregates = np.zeros((1, width), dtype=np.int64)
        self.total = np.zeros(width, dtype=np.int64)

    def _new_slot(self, key: bytes) -> int:
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
        else:
            slot = len(self._keys)
            self._keys.append(key)
            self._latest.append(None)
            self._windows.append(deque())
            self._analyses.append(None)
            if slot == len(self._aggregates):  # full: double the capacity
                self._aggregates = np.concatenate(
                    (self._aggregates, np.zeros_like(self._aggregates))
                )
        self._slot_of[key] = slot
        return slot

    def _evict(self) -> None:
        slot = int(self._slot_log[self._logged - len(self.histograms)])
        hist = self.histograms.popleft()
        self.total -= hist
        self._aggregates[slot] -= hist
        self._analyses[slot] = None
        windows = self._windows[slot]
        windows.popleft()
        if not windows:
            del self._slot_of[self._keys[slot]]
            self._latest[slot] = None
            self._free.append(slot)

    def _analysis(self, slot: int) -> BurstAnalysis:
        """The burst analysis of one slot's aggregate, kept until the
        slot changes. It analyzes a copy, since the aggregate changes in
        place, and the copy is read-only, since every result until then
        shares it."""
        analysis = self._analyses[slot]
        if analysis is None:
            hist = self._aggregates[slot].copy()
            hist.flags.writeable = False
            analysis = self._analyses[slot] = analyze_histogram(hist)
        return analysis

    def analyze(self) -> RecurrenceAnalysis:
        """Cluster the retained windows and decide whether bursts recur.

        The live patterns, weighted by window count, fall into
        ``min(MAX_CLUSTERS, live patterns)`` clusters by k-means with
        k-means++ seeding from a fresh ``np.random.default_rng(0)``.
        Clusters whose aggregate histogram has a significant burst
        distribution are burst clusters. The channel is recurrent when
        the windows in burst clusters number at least
        :data:`MIN_BURST_WINDOWS` and are not all contiguous (a single
        isolated burst episode does not recur), or fill half the
        horizon.
        """
        n = len(self.histograms)
        if n == 0:
            raise DetectionError("need at least one window histogram")
        live = sorted(self._slot_of.values())
        keys = [self._keys[slot] for slot in live]
        k = min(MAX_CLUSTERS, len(live))
        slots = self._slot_log[self._logged - n:self._logged]
        # With k patterns each is its own cluster (docs/ALGORITHMS.md,
        # section 5), so a cluster's analysis is its pattern's. Labels
        # are then row numbers until the numbered fields are read.
        own_clusters = k == len(live)
        if own_clusters:
            row_labels = np.arange(k)
            cluster_analyses = [self._analysis(slot) for slot in live]
        else:
            inverse = _window_rows(live, slots)
            counts = np.array(
                [len(self._windows[slot]) for slot in live], dtype=np.int64
            )
            row_labels, _centroids = _kmeans_rows(
                _rows(keys), counts, inverse, k, np.random.default_rng(0),
                max_iters=64,
            )
            aggregates = self._aggregates[live]
            cluster_analyses = []
            for j in range(k):
                members = row_labels == j
                cluster_analyses.append(
                    analyze_histogram(aggregates[members].sum(axis=0))
                    if members.any() else None
                )
        burst = {
            j for j, analysis in enumerate(cluster_analyses)
            if analysis is not None and analysis.significant
        }
        burst_rows = [j in burst for j in row_labels.tolist()]
        # The rule reads each burst pattern's window count, first and
        # last push index: the windows' positions up to one offset.
        burst_windows = [
            self._windows[slot] for slot, b in zip(live, burst_rows) if b
        ]
        size = sum(map(len, burst_windows))
        recurrent = bool(
            size >= MIN_BURST_WINDOWS
            and (
                size > 1
                and max(w[-1] for w in burst_windows)
                - min(w[0] for w in burst_windows) >= size
                or size >= max(2, n // 2)
            )
        )

        def number() -> tuple:
            window_rows = (
                _window_rows(live, slots) if own_clusters else inverse
            )
            order: Sequence[int] = range(k)
            if own_clusters and k > 1:
                # k-means++ seeds every pattern once, in the order its
                # draws pick them; that order numbers the clusters.
                order = _seed(
                    _rows(keys), window_rows, k, np.random.default_rng(0)
                )
            numbered = [label for label, j in enumerate(order) if j in burst]
            return (
                np.argsort(order)[row_labels][window_rows],
                tuple(numbered),
                tuple(cluster_analyses[order[label]] for label in numbered),
                np.flatnonzero(np.array(burst_rows)[window_rows]),
            )

        return RecurrenceAnalysis(
            n, recurrent, size, [cluster_analyses[j] for j in burst], number
        )
