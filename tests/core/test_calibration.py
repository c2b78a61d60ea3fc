"""Tests for Δt / α calibration."""

import numpy as np
import pytest

from repro.config import DIVIDER_DELTA_T_CYCLES, MEMBUS_DELTA_T_CYCLES
from repro.core.calibration import (
    DeltaTRegime,
    assess_delta_t,
    calibrate_alpha,
    paper_bus_calibration,
    paper_divider_calibration,
)
from repro.errors import DetectionError
from repro.sim.events import EventTap


class TestCalibrateAlpha:
    def test_bus_recovers_paper_delta_t(self):
        calibration = paper_bus_calibration()
        assert calibration.delta_t == MEMBUS_DELTA_T_CYCLES

    def test_divider_recovers_paper_delta_t(self):
        calibration = paper_divider_calibration()
        assert calibration.delta_t == pytest.approx(
            DIVIDER_DELTA_T_CYCLES, rel=0.01
        )

    def test_cluster_caps_window(self):
        calibration = calibrate_alpha(
            "x", burst_event_rate=1e-6, min_cluster_cycles=1_000,
            mean_event_rate=1e-6,
        )
        # 20 events at 1e-6/cycle would need 20M cycles; clusters cap it.
        assert calibration.delta_t == 1_000

    def test_bad_rates(self):
        with pytest.raises(DetectionError):
            calibrate_alpha("x", 0.0, 100, 0.1)
        with pytest.raises(DetectionError):
            calibrate_alpha("x", 0.1, 100, 0.1, target_burst_density=1.0)

    def test_summary_text(self):
        assert "membus" in paper_bus_calibration().summary()


class TestAssessDeltaT:
    HORIZON = 50_000_000

    def _bursty_counts(self, dt):
        """Window counts of one event per 5k cycles in bursts of 100k,
        every 1M cycles, at window width ``dt``."""
        tap = EventTap("bus")
        for burst_start in range(0, self.HORIZON, 1_000_000):
            tap.record_batch(
                np.arange(burst_start, burst_start + 100_000, 5_000)
            )
        return tap.window_reader().read_counts(dt, 0, self.HORIZON).expand()

    def test_paper_delta_t_usable(self):
        regime = assess_delta_t(self._bursty_counts(100_000))
        assert regime is DeltaTRegime.USABLE

    def test_tiny_delta_t_poisson(self):
        regime = assess_delta_t(self._bursty_counts(500))
        assert regime is DeltaTRegime.POISSON

    def test_huge_delta_t_normal(self):
        regime = assess_delta_t(self._bursty_counts(10_000_000))
        assert regime is DeltaTRegime.NORMAL
