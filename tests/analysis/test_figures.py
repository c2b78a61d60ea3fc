"""Tests for the figure experiment drivers (small, fast configurations)."""

import pytest

from repro.analysis import figures as F
from repro.errors import ReproError
from repro.util.bitstream import Message


class TestRunChannelSession:
    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            F.run_channel_session("gpu", Message.random(4, 1))

    def test_session_covers_transmission(self):
        run = F.run_channel_session(
            "membus", Message.random(4, 1), bandwidth_bps=100.0, noise=False
        )
        assert run.quanta >= 1
        assert run.channel.decoded_bits

    def test_max_quanta_cap(self):
        run = F.run_channel_session(
            "membus", Message.random(16, 1), bandwidth_bps=10.0,
            max_quanta=2, noise=False,
        )
        assert run.quanta == 2


class TestLatencyFigures:
    def test_fig2_separation(self):
        result = F.fig2_membus_latency(n_bits=8, bandwidth_bps=100.0)
        assert result.ber == 0.0
        assert result.separation > 50

    def test_fig3_separation(self):
        result = F.fig3_divider_latency(n_bits=8, bandwidth_bps=100.0)
        assert result.ber == 0.0
        assert result.mean_when_one > result.mean_when_zero


class TestTrainFigures:
    def test_fig4_bursts_in_one_bits(self):
        result = F.fig4_event_trains(n_bits=6, bandwidth_bps=100.0)
        bit_period = 25_000_000
        assert result.burst_fraction(result.bus_times, bit_period) > 0.9

    def test_fig5_second_mode(self):
        result = F.fig5_methodology()
        # Poisson reference explains the head but not the injected bursts.
        assert result.histogram[0] > 0
        assert result.histogram[10:].sum() > 0
        assert result.poisson_reference[15:].sum() < 1.0


class TestHistogramFigures:
    def test_fig6_burst_bins_near_paper(self):
        result = F.fig6_density_histograms(n_bits=6)
        assert 18 <= result.bus_burst_bin <= 22
        assert 84 <= result.divider_burst_bin <= 105
        assert result.bus_analysis.likelihood_ratio > 0.9
        assert result.divider_analysis.likelihood_ratio > 0.9


class TestCacheFigures:
    def test_fig7_ratio_decode(self):
        result = F.fig7_cache_ratios(n_bits=8, bandwidth_bps=500.0, n_sets=32)
        assert result.ber <= 1 / 8  # cold-start bit may flip
        assert result.mean_ratio_ones > 1.0
        assert result.mean_ratio_zeros < 1.0

    def test_fig8_peak_at_set_count(self):
        result = F.fig8_cache_autocorrelogram(
            n_bits=8, bandwidth_bps=500.0, n_sets=64
        )
        assert result.analysis.significant
        assert 60 <= result.peak_lag <= 80
        assert result.peak_value > 0.7

    def test_fig13_wavelength_tracks_sets(self):
        results = F.fig13_cache_set_sweep(
            set_counts=(64, 32), bandwidth_bps=1000.0, n_bits=6
        )
        for result in results:
            assert result.peak_lag >= result.n_sets
            assert result.peak_lag <= result.n_sets * 1.4


class TestSweeps:
    def test_fig10_burst_channels_high_lr(self):
        points = F.fig10_bandwidth_sweep(
            bandwidths=(10.0,), n_bits=6, cache_sets=32
        )
        by_kind = {p.kind: p for p in points}
        assert by_kind["membus"].likelihood_ratio > 0.9
        assert by_kind["divider"].likelihood_ratio > 0.9
        assert by_kind["membus"].detected
        assert by_kind["divider"].detected
        assert by_kind["cache"].detected

    def test_fig12_message_patterns_stable(self):
        results = F.fig12_message_sweep(
            n_messages=3, n_bits=6, kinds=("membus",)
        )
        assert results[0].min_likelihood_ratio > 0.9
        assert (results[0].max_hist >= results[0].min_hist).all()

    def test_message_with_ones(self):
        msg = F._message_with_ones(4, seed=0)
        assert msg.ones >= 2


class TestFalseAlarms:
    def test_no_alarms_on_benign_pairs(self):
        from repro.workloads.spec import gobmk, sjeng

        results = F.fig14_false_alarms(
            pairs=[(gobmk, sjeng)], n_quanta=3
        )
        assert len(results) == 1
        assert not results[0].any_alarm

    def test_detection_summary(self):
        summary = F.detection_summary(n_bits=6, n_quanta_benign=2)
        assert summary.all_detected
        assert summary.false_alarms == 0
        assert summary.pairs_tested == 5


class TestWindowFractionPlumbing:
    def test_fractional_windows_in_session(self):
        run = F.run_channel_session(
            "cache", Message.random(6, 2), bandwidth_bps=500.0, seed=2,
            n_sets_total=32, window_fraction=0.25, noise=False,
        )
        verdict = run.hunter.report().verdicts[0]
        # Four analysis windows per quantum.
        assert verdict.quanta_analyzed == run.quanta * 4
        assert verdict.detected

    def test_fig11_points_are_live_cache_verdicts(self):
        """Figure 11 replays one session through the detector's analyzer:
        each point is the cache verdict of a live session at that window
        fraction."""
        points = F.fig11_window_scaling(
            bandwidth_bps=2.0, n_bits=2, cache_sets=64
        )
        assert [p.fraction for p in points] == [1.0, 0.75, 0.5, 0.25]
        for point in points:
            run = F.run_channel_session(
                "cache", F._message_with_ones(2, 1), bandwidth_bps=2.0,
                seed=1, window_fraction=point.fraction, n_sets_total=64,
            )
            verdict = run.hunter.report().verdict_for("cache")
            assert (
                point.best_peak,
                point.significant_windows,
                point.windows_analyzed,
            ) == (
                verdict.max_peak,
                verdict.oscillating_windows,
                verdict.quanta_analyzed,
            ), point.fraction

    def test_aggregate_histogram_sums_quanta(self):
        run = F.run_channel_session(
            "membus", Message.random(20, 2), bandwidth_bps=100.0, seed=2,
            noise=False,
        )
        from repro.core.detector import AuditUnit

        per_quantum = run.hunter.burst_histograms(AuditUnit.MEMORY_BUS)
        aggregate = F.aggregate_histogram(run.hunter, AuditUnit.MEMORY_BUS)
        assert aggregate.sum() == sum(h.sum() for h in per_quantum)
