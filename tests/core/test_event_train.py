"""Tests for event trains and dominant-pair extraction."""

import numpy as np

from repro.core.event_train import EventTrain, dominant_pair_series


class TestEventTrain:
    def test_sorted_on_construction(self):
        train = EventTrain(np.array([30, 10, 20]))
        assert train.times.tolist() == [10, 20, 30]

    def test_count_and_span(self):
        train = EventTrain(np.array([100, 500]))
        assert train.count == 2
        assert train.span == 400

    def test_span_of_singleton(self):
        assert EventTrain(np.array([5])).span == 0

    def test_slice(self):
        train = EventTrain(np.arange(0, 100, 10))
        assert train.slice(25, 55).times.tolist() == [30, 40, 50]

    def test_density_counts(self):
        train = EventTrain(np.array([1, 2, 15, 16, 17]))
        assert train.density_counts(10, 0, 20).tolist() == [2, 3]


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
