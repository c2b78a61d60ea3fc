"""Tests for Δt selection and density-histogram construction."""

import numpy as np
import pytest

from repro.core.density import (
    build_density_histogram,
    choose_delta_t,
    default_delta_t,
)
from repro.core.event_train import EventTrain
from repro.errors import DetectionError


class TestChooseDeltaT:
    def test_alpha_rule(self):
        # Mean rate 1/5000 cycles, alpha 20 -> Δt = 100k (the bus value).
        assert choose_delta_t(1 / 5000, alpha=20) == 100_000

    def test_clamped_low(self):
        assert choose_delta_t(1.0, alpha=1, min_dt=16) == 16

    def test_clamped_high(self):
        assert choose_delta_t(1e-9, alpha=10, max_dt=10_000_000) == 10_000_000

    def test_bad_rate(self):
        with pytest.raises(DetectionError):
            choose_delta_t(0.0, alpha=1)

    def test_bad_alpha(self):
        with pytest.raises(DetectionError):
            choose_delta_t(0.1, alpha=0)


class TestDefaults:
    def test_paper_values(self):
        assert default_delta_t("membus") == 100_000
        assert default_delta_t("divider") == 500

    def test_unknown_unit(self):
        with pytest.raises(DetectionError):
            default_delta_t("gpu")


class TestBuildHistogram:
    def test_basic(self):
        train = EventTrain(np.array([5, 6, 7, 105]))
        dh = build_density_histogram(train, dt=100, t0=0, t1=200)
        assert dh.hist[3] == 1  # one window with 3 events
        assert dh.hist[1] == 1  # one window with 1 event
        assert dh.n_windows == 2

    def test_empty_window_raises(self):
        train = EventTrain(np.array([1]))
        with pytest.raises(DetectionError):
            build_density_histogram(train, dt=10, t0=5, t1=5)

    def test_total_events_lower_bound(self):
        train = EventTrain(np.arange(50))
        dh = build_density_histogram(train, dt=10, t0=0, t1=50, n_bins=128)
        assert dh.total_events_lower_bound == 50
