"""Tests for the SMT integer-divider covert channel."""

import numpy as np
import pytest

from repro.channels.base import ChannelConfig
from repro.channels.divider import DividerCovertChannel
from repro.errors import ChannelError
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from tests.sim.tap_reference import segment_mass


def run_channel(message, bandwidth=1000.0, seed=3, core=0):
    machine = Machine(seed=seed)
    channel = DividerCovertChannel(
        machine, ChannelConfig(message=message, bandwidth_bps=bandwidth)
    )
    channel.deploy(core=core)
    machine.run_until(channel.transmission_end + 1)
    return machine, channel


class TestTransmission:
    def test_decodes_exactly(self, message8):
        _, channel = run_channel(message8)
        assert channel.decoded_bits == list(message8.bits)

    def test_iteration_latency_separation(self, message8):
        _, channel = run_channel(message8)
        per_bit = [float(np.mean(s)) for s in channel.spy_samples]
        ones = [m for m, b in zip(per_bit, message8.bits) if b == 1]
        zeros = [m for m, b in zip(per_bit, message8.bits) if b == 0]
        assert min(ones) > channel.decode_threshold > max(zeros)

    def test_hyperthread_coresidency_enforced(self, message8):
        machine = Machine(seed=1)
        channel = DividerCovertChannel(machine, ChannelConfig(message8))
        with pytest.raises(ChannelError):
            channel.deploy(trojan_ctx=0, spy_ctx=2)  # different cores

    def test_default_deploy_uses_core_zero(self, message8):
        machine = Machine(seed=1)
        channel = DividerCovertChannel(machine, ChannelConfig(message8))
        channel.deploy()
        assert channel.trojan.core == 0
        assert channel.spy.core == 0

    def test_other_core_deploy(self, message8):
        _, channel = run_channel(message8, core=2)
        assert channel.bit_error_rate() == 0.0


class TestIndicatorEvents:
    def test_wait_events_only_for_ones(self):
        machine, channel = run_channel(Message.from_bits([1, 0, 0, 1]))
        counts = machine.divider_wait_tap_for(0).window_reader().read_counts(
            channel.bit_period, 0, channel.transmission_end
        ).expand()
        assert counts[0] > 0
        assert counts[1] == 0
        assert counts[2] == 0
        assert counts[3] > 0

    def test_wait_density_near_paper_mode(self):
        """~96 wait events per 500-cycle window while saturated (Fig 6b)."""
        machine, channel = run_channel(Message.from_bits([1, 1]))
        counts = machine.divider_wait_tap_for(0).window_reader().read_counts(
            500, 0, channel.transmission_end
        ).expand()
        busy = counts[counts > 0]
        assert 88 <= np.median(busy) <= 104

    def test_other_cores_untouched(self, message8):
        machine, _ = run_channel(message8, core=0)
        for core in (1, 2, 3):
            assert segment_mass(machine.divider_wait_tap_for(core)) == 0


class TestValidation:
    def test_bad_divs_per_iter(self, machine, message8):
        with pytest.raises(ChannelError):
            DividerCovertChannel(
                machine, ChannelConfig(message8), divs_per_iter=0
            )

    def test_spy_samples_bounded(self, message8):
        _, channel = run_channel(message8)
        for sample in channel.spy_samples:
            assert sample.size <= 250
