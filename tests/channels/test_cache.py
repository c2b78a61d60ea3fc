"""Tests for the shared-L2 cache covert channel."""

import numpy as np
import pytest

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.core.event_train import dominant_pair_series
from repro.errors import ChannelError
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from tests.sim.tap_reference import recorded_records


def run_channel(message, bandwidth=500.0, seed=3, n_sets=32, **kwargs):
    machine = Machine(seed=seed)
    channel = CacheCovertChannel(
        machine,
        ChannelConfig(message=message, bandwidth_bps=bandwidth),
        n_sets_total=n_sets,
        **kwargs,
    )
    channel.deploy()
    machine.run_until(channel.transmission_end + 1)
    return machine, channel


class TestTransmission:
    def test_decodes_after_warmup(self, message8):
        _, channel = run_channel(message8)
        # The first bit can be garbled by cold caches; the rest decode.
        assert channel.decoded_bits[1:] == list(message8.bits[1:])

    def test_ratios_flip_around_one(self, message8):
        _, channel = run_channel(message8)
        ratios = channel.latency_ratios()[1:]
        bits = message8.bits[1:]
        for ratio, bit in zip(ratios, bits):
            if bit == 1:
                assert ratio > 1.0
            else:
                assert ratio < 1.0

    def test_groups_disjoint(self, message8):
        _, channel = run_channel(message8)
        assert not set(channel.g1_sets) & set(channel.g0_sets)
        assert len(channel.g1_sets) == len(channel.g0_sets) == 16

    def test_group_seed_reproducible(self, machine, message8):
        a = CacheCovertChannel(machine, ChannelConfig(message8),
                               n_sets_total=32, group_seed=5)
        b = CacheCovertChannel(Machine(seed=9), ChannelConfig(message8),
                               n_sets_total=32, group_seed=5)
        assert a.g1_sets == b.g1_sets

    def test_empty_ratios_before_run(self, machine, message8):
        channel = CacheCovertChannel(machine, ChannelConfig(message8),
                                     n_sets_total=32)
        assert channel.latency_ratios().size == 0


class TestConflictTrain:
    def test_steady_state_alternating_phases(self, message8):
        """After warmup, the pair's conflict train alternates phases of one
        event per swept set — the wavelength equals the total sets used."""
        machine, channel = run_channel(message8)
        _, reps, vics = recorded_records(machine.cache_miss_tap)
        labels, _, pair = dominant_pair_series(reps, vics)
        assert set(pair) == {channel.trojan_ctx, channel.spy_ctx}
        changes = np.nonzero(np.diff(labels))[0]
        runs = np.diff(np.concatenate([[0], changes + 1, [labels.size]]))
        half = channel.n_sets_total // 2
        full_runs = (runs == half).sum()
        assert full_runs > 0.6 * runs.size

    def test_event_volume_scales_with_rounds(self):
        message = Message.from_bits([1, 0, 1, 0])
        machine, channel = run_channel(message)
        # Steady state: ~n_sets_total events per round (plus cold start).
        expected = channel.rounds_per_bit * len(message) * channel.n_sets_total
        assert machine.cache_miss_tap.count == pytest.approx(
            expected, rel=0.35
        )


class TestPacing:
    def test_high_bandwidth_single_cluster(self, message8):
        machine = Machine(seed=1)
        channel = CacheCovertChannel(
            machine, ChannelConfig(message8, bandwidth_bps=2000.0),
            n_sets_total=32,
        )
        assert channel.clusters_per_bit >= 1
        assert channel.rounds_per_bit >= channel.rounds_per_cluster

    def test_low_bandwidth_clusters_spread(self, message8):
        machine = Machine(seed=1)
        channel = CacheCovertChannel(
            machine, ChannelConfig(message8, bandwidth_bps=0.5),
            n_sets_total=32,
        )
        # Cluster spacing capped at one OS quantum.
        assert channel.cluster_interval == machine.quantum_cycles

    def test_cluster_fits_bit_period(self, message8):
        machine = Machine(seed=1)
        channel = CacheCovertChannel(
            machine, ChannelConfig(message8, bandwidth_bps=100.0),
            n_sets_total=64,
        )
        duration = channel.rounds_per_cluster * channel.round_period
        last_start = (channel.clusters_per_bit - 1) * channel.cluster_interval
        assert last_start + duration <= channel.bit_period

    def test_impossible_bandwidth_rejected(self, machine, message8):
        with pytest.raises(ChannelError):
            CacheCovertChannel(
                machine,
                ChannelConfig(message8, bandwidth_bps=50_000.0),
                n_sets_total=512,
            )


class TestValidation:
    def test_odd_set_count_rejected(self, machine, message8):
        with pytest.raises(ChannelError):
            CacheCovertChannel(machine, ChannelConfig(message8),
                               n_sets_total=33)

    def test_too_many_sets_rejected(self, machine, message8):
        with pytest.raises(ChannelError):
            CacheCovertChannel(machine, ChannelConfig(message8),
                               n_sets_total=2048)

    def test_min_rounds_per_cluster(self, machine, message8):
        with pytest.raises(ChannelError):
            CacheCovertChannel(machine, ChannelConfig(message8),
                               n_sets_total=32, rounds_per_cluster=1)

    def test_default_deploy_distinct_cores(self, message8):
        machine = Machine(seed=1)
        channel = CacheCovertChannel(machine, ChannelConfig(message8),
                                     n_sets_total=32)
        channel.deploy()
        assert channel.trojan.core != channel.spy.core


class TestEvasionKnobs:
    def test_bad_skip_prob(self, machine, message8):
        with pytest.raises(ChannelError):
            CacheCovertChannel(machine, ChannelConfig(message8),
                               n_sets_total=32, evasion_skip_prob=1.0)

    def test_bad_subset_frac(self, machine, message8):
        with pytest.raises(ChannelError):
            CacheCovertChannel(machine, ChannelConfig(message8),
                               n_sets_total=32, evasion_subset_frac=0.0)

    def test_skip_thins_train_but_keeps_runs(self, message8):
        clean_machine, clean = run_channel(message8)
        machine, channel = run_channel(message8, evasion_skip_prob=0.5)
        assert (
            machine.cache_miss_tap.count
            < 0.8 * clean_machine.cache_miss_tap.count
        )
        # Surviving rounds still produce full half-group runs.
        _, reps, vics = recorded_records(machine.cache_miss_tap)
        labels, _, _ = dominant_pair_series(reps, vics)
        changes = np.nonzero(np.diff(labels))[0]
        runs = np.diff(np.concatenate([[0], changes + 1, [labels.size]]))
        assert (runs == channel.n_sets_total // 2).sum() > 0.5 * runs.size

    def test_subset_shortens_runs(self, message8):
        machine, channel = run_channel(message8, evasion_subset_frac=0.4)
        _, reps, vics = recorded_records(machine.cache_miss_tap)
        labels, _, _ = dominant_pair_series(reps, vics)
        changes = np.nonzero(np.diff(labels))[0]
        runs = np.diff(np.concatenate([[0], changes + 1, [labels.size]]))
        half = channel.n_sets_total // 2
        # Hardly any full-length phases survive random subsetting.
        assert (runs == half).sum() < 0.2 * runs.size

    def test_subset_reduces_spy_contrast(self, message8):
        _, clean = run_channel(message8)
        _, evading = run_channel(message8, evasion_subset_frac=0.3)
        clean_contrast = np.abs(np.log(clean.latency_ratios()[1:])).mean()
        evading_contrast = np.abs(
            np.log(evading.latency_ratios()[1:])
        ).mean()
        assert evading_contrast < 0.5 * clean_contrast
