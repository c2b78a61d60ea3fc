"""Tests for the pattern horizon and recurrence analysis."""

import numpy as np
import pytest

from repro.config import CLUSTERING_WINDOW_QUANTA
from repro.core import clustering
from repro.core.clustering import MAX_CLUSTERS, PatternHorizon
from repro.errors import DetectionError


def covert_hist(seed=0):
    rng = np.random.default_rng(seed)
    hist = np.zeros(128, dtype=np.int64)
    hist[0] = 2000 + int(rng.integers(0, 100))
    hist[20] = 200 + int(rng.integers(0, 30))
    return hist


def quiet_hist(seed=0):
    rng = np.random.default_rng(seed)
    hist = np.zeros(128, dtype=np.int64)
    hist[0] = 2400
    hist[1] = int(rng.integers(0, 5))
    return hist


def analyze_windows(hists, max_windows=CLUSTERING_WINDOW_QUANTA):
    """Push ``hists`` into a fresh horizon and analyze it."""
    horizon = PatternHorizon(max_windows)
    for hist in hists:
        horizon.push(hist)
    return horizon.analyze()


class TestRecurrence:
    def test_recurrent_channel_pattern(self):
        """Covert quanta interleaved with quiet quanta recur."""
        hists = []
        for i in range(16):
            hists.append(covert_hist(i) if i % 2 == 0 else quiet_hist(i))
        result = analyze_windows(hists)
        assert result.recurrent
        assert result.burst_clusters
        assert result.burst_window_fraction == pytest.approx(0.5, abs=0.15)

    def test_continuous_channel_recurrent(self):
        hists = [covert_hist(i) for i in range(8)]
        result = analyze_windows(hists)
        assert result.recurrent

    def test_quiet_windows_not_recurrent(self):
        hists = [quiet_hist(i) for i in range(16)]
        result = analyze_windows(hists)
        assert not result.recurrent
        assert not result.burst_clusters

    def test_single_burst_episode_not_recurrent(self):
        """One isolated bursty quantum among many quiet ones: no recurrence."""
        hists = [quiet_hist(i) for i in range(15)]
        hists.insert(7, covert_hist(0))
        result = analyze_windows(hists)
        assert not result.recurrent

    def test_low_lr_bursts_not_flagged(self):
        """Mailserver-like windows: second mode with LR < 0.5."""
        hist = np.zeros(128, dtype=np.int64)
        hist[0] = 20_000
        hist[1] = 200
        hist[2] = 60
        hist[3] = 30
        hist[6] = 8
        result = analyze_windows([hist.copy() for _ in range(8)])
        assert not result.burst_clusters
        assert not result.recurrent

    def test_window_cap_keeps_recent(self):
        hists = [covert_hist(i) for i in range(8)]
        result = analyze_windows(hists, max_windows=4)
        assert result.n_windows == 4

    def test_empty_rejected(self):
        with pytest.raises(DetectionError):
            analyze_windows([])

    def test_mismatched_bins_rejected(self):
        with pytest.raises(DetectionError):
            analyze_windows([np.zeros(128), np.zeros(64)])

    def test_clusters_capped_at_max_clusters(self):
        hists = []
        for i in range(6):
            hist = covert_hist(i)
            hist[40 + i] = 50  # six distinct patterns
            hists.append(hist)
        result = analyze_windows(hists)
        assert len(set(result.cluster_labels.tolist())) <= MAX_CLUSTERS


class TestPatternHorizon:
    def test_patterns_follow_windows_in_and_out(self):
        a, b = covert_hist(0), quiet_hist(0)
        horizon = PatternHorizon(max_windows=2)
        for hist in (a, a, b):
            horizon.push(hist)
        assert len(horizon) == 2
        assert horizon.n_patterns == 2
        horizon.push(b)
        assert horizon.n_patterns == 1  # a's last window left
        assert horizon.total.tolist() == (2 * b).tolist()
        horizon.push(a)  # a returns into the freed slot
        assert horizon.n_patterns == 2
        assert horizon.total.tolist() == (a + b).tolist()

    def test_equal_histograms_share_one_array(self):
        horizon = PatternHorizon(max_windows=4)
        first = horizon.push(covert_hist(0))
        assert horizon.push(covert_hist(0)) is first
        other = covert_hist(0)
        other[0] += 1  # same pattern, different counts
        assert horizon.push(other) is not first
        assert [h.tolist() for h in horizon.histograms] == [
            covert_hist(0).tolist(), covert_hist(0).tolist(), other.tolist()
        ]

    def test_bad_input_rejected(self):
        with pytest.raises(DetectionError):
            PatternHorizon(max_windows=0)
        horizon = PatternHorizon()
        with pytest.raises(DetectionError):
            horizon.analyze()
        horizon.push(np.zeros(128))
        with pytest.raises(DetectionError):
            horizon.push(np.zeros(64))
        assert len(horizon) == 1


def _counting(monkeypatch, name):
    """Wrap ``repro.core.clustering.<name>``; returns the call log."""
    calls = []
    real = getattr(clustering, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(clustering, name, wrapper)
    return calls


class TestSkippedWork:
    """With at most ``MAX_CLUSTERS`` (four) live patterns, a verdict runs
    no k-means and re-analyzes only the patterns changed since the last
    verdict."""

    def test_no_kmeans_at_or_below_k_patterns(self, monkeypatch):
        kmeans_calls = _counting(monkeypatch, "_kmeans_rows")
        seeds = _counting(monkeypatch, "_seed")
        horizon = PatternHorizon(max_windows=8)
        seen = set()
        for i in range(20):
            hist = covert_hist(i) if i % 3 else quiet_hist(i)
            if i % 5 == 4:
                hist[40 + i % 2] = 50  # a third and a fourth pattern
            horizon.push(hist)
            seen.add(horizon.n_patterns)
            result = horizon.analyze()
            assert result.burst_window_fraction >= 0.0
        assert seen == {1, 2, 3, 4}
        assert kmeans_calls == [] and seeds == []
        # Reading a numbered field runs the seeding alone, never Lloyd.
        assert result.cluster_labels.size == len(horizon)
        assert kmeans_calls == [] and len(seeds) == 1

    def test_more_than_k_patterns_run_kmeans(self, monkeypatch):
        kmeans_calls = _counting(monkeypatch, "_kmeans_rows")
        horizon = PatternHorizon(max_windows=8)
        for i in range(5):
            hist = quiet_hist(i)
            hist[10 + 3 * i] = 50  # five distinct patterns
            horizon.push(hist)
        assert horizon.n_patterns == 5
        horizon.analyze()
        assert len(kmeans_calls) == 1

    def test_analyzes_only_changed_patterns(self, monkeypatch):
        analyses = _counting(monkeypatch, "analyze_histogram")
        horizon = PatternHorizon(max_windows=4)
        a, b = covert_hist(0), quiet_hist(0)
        for hist in (b, a, a):
            horizon.push(hist)
        horizon.analyze()
        assert len(analyses) == 2  # both patterns are new
        horizon.analyze()
        assert len(analyses) == 2  # nothing changed
        horizon.push(a)  # fills the horizon: pattern a only
        horizon.analyze()
        assert len(analyses) == 3
        horizon.push(a)  # pushes a, evicts b's only window: one live slot
        horizon.analyze()
        assert len(analyses) == 4 and horizon.n_patterns == 1
        horizon.push(b)  # pushes b into the freed slot, evicts an a
        horizon.analyze()
        assert len(analyses) == 6

    def test_result_unchanged_by_later_pushes(self):
        """Numbered fields read after later pushes and evictions equal
        those read at once, and no analysis aliases a live aggregate:
        with two patterns, and with six, where k-means runs."""
        few = [covert_hist(i) if i % 2 else quiet_hist(i) for i in range(6)]
        many = [hist.copy() for hist in few]
        for i, hist in enumerate(many):
            hist[40 + i] = 50  # six distinct patterns
        for stream in (few, many):
            horizon = PatternHorizon(max_windows=6)
            for hist in stream:
                horizon.push(hist)
            late = horizon.analyze()
            early = horizon.analyze()
            expected = (
                early.cluster_labels.copy(),
                early.burst_clusters,
                early.burst_window_indices.copy(),
                [a.hist.copy() for a in early.burst_analyses],
            )
            assert early.burst_analyses
            for i in range(9):  # evicts every window and frees a slot
                horizon.push(covert_hist(100 + i))
            for result in (late, early):
                assert result.cluster_labels.tolist() == expected[0].tolist()
                assert result.burst_clusters == expected[1]
                assert (
                    result.burst_window_indices.tolist()
                    == expected[2].tolist()
                )
                assert [a.hist.tolist() for a in result.burst_analyses] == [
                    h.tolist() for h in expected[3]
                ]


class TestSummationGrouping:
    """numpy sums at most ``PAIRWISE_BLOCK`` float64 terms with eight
    interleaved accumulators, so a row that is zero after a multiple-of-8
    prefix sums to the same bits over the prefix as over all its
    columns. K-means over cut rows relies on this (docs/ALGORITHMS.md,
    section 5): a numpy release that regrouped its reductions fails here
    instead of flipping a near-tie unnoticed."""

    N_ROWS = 1000

    def _padded(self, gen, width, n):
        full = np.zeros((n, clustering.PAIRWISE_BLOCK))
        full[:, :width] = 4 * gen.random((n, width))
        return full, np.ascontiguousarray(full[:, :width])

    @pytest.mark.parametrize("width", range(8, clustering.PAIRWISE_BLOCK, 8))
    def test_multiple_of_8_prefix_sums_as_the_full_row(self, width):
        gen = np.random.default_rng(width)
        full, prefix = self._padded(gen, width, self.N_ROWS)
        assert prefix.sum(axis=1).tobytes() == full.sum(axis=1).tobytes()
        centroids, cut = self._padded(gen, width, 5)
        assert (
            ((prefix[:, None] - cut[None]) ** 2).sum(axis=2).tobytes()
            == ((full[:, None] - centroids[None]) ** 2).sum(axis=2).tobytes()
        )

    @pytest.mark.parametrize("width", [5, 11, 12, 19])
    def test_other_prefixes_regroup(self, width):
        """The check has teeth: other prefixes of the same kind of rows
        differ from the full row in the last bit for many rows."""
        gen = np.random.default_rng(width)
        full, prefix = self._padded(gen, width, self.N_ROWS)
        differ = prefix.sum(axis=1) != full.sum(axis=1)
        assert differ.mean() > 0.1
