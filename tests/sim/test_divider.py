"""Tests for the SMT integer-divider model."""

import numpy as np
import pytest

from repro.config import DividerConfig
from repro.errors import SimulationError
from repro.sim.events import RateSegmentTap
from repro.sim.resources.divider import CONTENTION_INTENSITY, DividerUnit
from repro.util.rng import make_rng
from tests.sim.tap_reference import recorded_segments, segment_mass


@pytest.fixture
def unit():
    return DividerUnit(0, DividerConfig(), RateSegmentTap("wait"), make_rng(0))


CFG = DividerConfig()
LAT_IDLE = CFG.loop_overhead + 4 * CFG.latency
LAT_BUSY = CFG.loop_overhead + 4 * (CFG.latency + CFG.contended_extra_latency)


class TestSaturate:
    def test_saturate_alone_no_waits(self, unit):
        unit.saturate(ctx=0, start=0, duration=100_000)
        assert segment_mass(unit.wait_tap) == 0

    def test_bad_duration(self, unit):
        with pytest.raises(SimulationError):
            unit.saturate(0, 0, 0)

    def test_overlap_produces_wait_segment(self, unit):
        unit.saturate(ctx=0, start=0, duration=50_000)
        unit.run_loop(ctx=1, start=0, iterations=100, divs_per_iter=4)
        # Waits at the full saturation x loop intensity rate.
        expected_rate = 1.0 / CFG.contention_event_period
        _starts, _ends, rates = recorded_segments(unit.wait_tap)
        assert rates.size >= 1
        assert rates[0] == pytest.approx(expected_rate)


class TestRunLoop:
    def test_idle_latency(self, unit):
        end, lat = unit.run_loop(ctx=1, start=0, iterations=50, divs_per_iter=4)
        # Observed latencies jitter by <=3 around the deterministic value.
        assert np.abs(lat - LAT_IDLE).max() <= 3
        assert end == 50 * LAT_IDLE

    def test_contended_latency(self, unit):
        unit.saturate(ctx=0, start=0, duration=10**9)
        _, lat = unit.run_loop(ctx=1, start=0, iterations=50, divs_per_iter=4)
        assert np.abs(lat - LAT_BUSY).max() <= 3

    def test_transition_mid_loop(self, unit):
        # Saturation covers only the first half of the loop's span.
        unit.saturate(ctx=0, start=0, duration=20 * LAT_BUSY)
        _, lat = unit.run_loop(ctx=1, start=0, iterations=60, divs_per_iter=4)
        # Early iterations contended, late iterations idle.
        assert abs(int(lat[0]) - LAT_BUSY) <= 3
        assert abs(int(lat[-1]) - LAT_IDLE) <= 3

    def test_loop_usage_creates_waits_for_later_saturator(self, unit):
        unit.run_loop(ctx=1, start=0, iterations=100, divs_per_iter=4)
        unit.saturate(ctx=0, start=0, duration=50_000)
        assert recorded_segments(unit.wait_tap)[0].size >= 1

    def test_bad_sizes(self, unit):
        with pytest.raises(SimulationError):
            unit.run_loop(0, 0, 0, 4)


class TestRandomUse:
    def test_duty_respected(self, unit):
        unit.random_use(ctx=0, start=0, duration=10_000_000, duty=0.2,
                        burst_cycles=25_000, intensity=0.1)
        track = unit._usage[0]
        covered = sum(e - s for s, e in zip(track.starts, track.ends))
        assert covered == pytest.approx(0.2 * 10_000_000, rel=0.2)

    def test_intervals_disjoint_and_sorted(self, unit):
        unit.random_use(0, 0, 5_000_000, duty=0.3, burst_cycles=20_000)
        track = unit._usage[0]
        starts = np.array(track.starts)
        ends = np.array(track.ends)
        assert (starts[1:] >= ends[:-1]).all()

    def test_low_intensity_overlap_rate(self, unit):
        # Two benign users at intensity 0.1 -> rate product 0.01.
        unit.random_use(0, 0, 1_000_000, duty=1.0, burst_cycles=1_000_000,
                        intensity=0.1)
        unit.random_use(1, 0, 1_000_000, duty=1.0, burst_cycles=1_000_000,
                        intensity=0.1)
        rates = recorded_segments(unit.wait_tap)[2]
        assert rates[0] == pytest.approx(
            0.01 / CFG.contention_event_period
        )

    def test_track_views_are_read_only(self, unit):
        unit.random_use(0, 0, 1_000_000, duty=0.5, burst_cycles=10_000)
        track = unit._usage[0]
        for column in (track.starts, track.ends, *track.arrays()):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_zero_duty_no_usage(self, unit):
        unit.random_use(0, 0, 1_000_000, duty=0.0, burst_cycles=1000)
        assert 0 not in unit._usage

    def test_bad_duty(self, unit):
        with pytest.raises(SimulationError):
            unit.random_use(0, 0, 1000, duty=1.5, burst_cycles=100)

    def test_bad_intensity(self, unit):
        with pytest.raises(SimulationError):
            unit.random_use(0, 0, 1000, duty=0.5, burst_cycles=100,
                            intensity=0.0)

    def test_low_intensity_does_not_slow_loop(self, unit):
        # Benign usage below the contention threshold must not inflate the
        # sibling's iteration latency.
        assert 0.1 < CONTENTION_INTENSITY
        unit.random_use(0, 0, 10**7, duty=1.0, burst_cycles=10**7,
                        intensity=0.1)
        _, lat = unit.run_loop(1, 0, 50, 4)
        assert np.abs(lat - LAT_IDLE).max() <= 3


class TestWaitDensity:
    def test_saturation_density_matches_paper(self, unit):
        """A saturated divider with a looping sibling sustains ~96 wait
        events per 500-cycle window (Figure 6b's second mode)."""
        unit.saturate(0, 0, 1_000_000)
        unit.run_loop(1, 0, 5000, 4)
        counts = unit.wait_tap.window_reader().read_counts(
            500, 0, 500_000
        ).expand()
        busy = counts[counts > 0]
        assert busy.size > 500
        assert 90 <= np.median(busy) <= 102
