"""Tests for dominant-pair extraction from conflict-miss trains."""

import numpy as np

from repro.core.event_train import dominant_pair_series


class TestDominantPairSeries:
    def test_extracts_dominant_pair(self):
        reps = np.array([0, 2, 0, 2, 5, 0])
        vics = np.array([2, 0, 2, 0, 1, 2])
        labels, idx, pair = dominant_pair_series(reps, vics)
        assert pair == (0, 2)
        assert idx.tolist() == [0, 1, 2, 3, 5]
        # Direction with replacer == min ctx labeled 1.
        assert labels.tolist() == [1, 0, 1, 0, 1]

    def test_self_events_excluded(self):
        reps = np.array([3, 3, 1])
        vics = np.array([3, 3, 2])
        labels, idx, pair = dominant_pair_series(reps, vics)
        assert pair == (1, 2)
        assert idx.tolist() == [2]

    def test_all_self_events(self):
        reps = np.array([3, 3])
        vics = np.array([3, 3])
        labels, idx, pair = dominant_pair_series(reps, vics)
        assert labels.size == 0
        assert pair == (-1, -1)

    def test_empty_input(self):
        labels, idx, pair = dominant_pair_series(np.zeros(0), np.zeros(0))
        assert labels.size == 0
