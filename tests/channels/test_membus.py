"""Tests for the memory bus covert channel."""

import numpy as np
import pytest

from repro.channels.base import ChannelConfig
from repro.channels.membus import MemoryBusCovertChannel
from repro.errors import ChannelError
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from tests.sim.tap_reference import recorded_times


def run_channel(message, bandwidth=1000.0, seed=3, **kwargs):
    machine = Machine(seed=seed)
    channel = MemoryBusCovertChannel(
        machine, ChannelConfig(message=message, bandwidth_bps=bandwidth),
        **kwargs,
    )
    channel.deploy(trojan_ctx=0, spy_ctx=2)
    machine.run_until(channel.transmission_end + 1)
    return machine, channel


class TestTransmission:
    def test_decodes_exactly(self, message8):
        _, channel = run_channel(message8)
        assert channel.decoded_bits == list(message8.bits)
        assert channel.bit_error_rate() == 0.0

    def test_all_ones(self):
        _, channel = run_channel(Message.from_bits([1] * 6))
        assert channel.bit_error_rate() == 0.0

    def test_all_zeros(self):
        _, channel = run_channel(Message.from_bits([0] * 6))
        assert channel.bit_error_rate() == 0.0

    def test_latency_separation(self, message8):
        _, channel = run_channel(message8)
        per_bit = [float(np.mean(s)) for s in channel.spy_samples]
        ones = [m for m, b in zip(per_bit, message8.bits) if b == 1]
        zeros = [m for m, b in zip(per_bit, message8.bits) if b == 0]
        assert min(ones) > channel.decode_threshold > max(zeros)

    def test_sample_series_length(self, message8):
        _, channel = run_channel(message8)
        assert channel.sample_latencies().size == 8 * channel.samples_per_bit

    def test_empty_before_run(self, machine, message8):
        channel = MemoryBusCovertChannel(
            machine, ChannelConfig(message8)
        )
        assert channel.sample_latencies().size == 0


class TestIndicatorEvents:
    def test_lock_events_only_for_ones(self, message8):
        machine, channel = run_channel(message8)
        times = recorded_times(machine.bus_lock_tap)
        bit_idx = times // channel.bit_period
        bits = np.asarray(message8.bits)[np.minimum(bit_idx, 7)]
        assert (bits == 1).all()

    def test_lock_count_matches_protocol(self):
        message = Message.from_bits([1, 0, 1])
        machine, channel = run_channel(message)
        assert machine.bus_lock_tap.count == 2 * channel.locks_per_one

    def test_burst_density_near_paper_bin(self, message8):
        """~20 lock events per Δt = 100k cycles during '1' bits (Fig 6a)."""
        machine, channel = run_channel(Message.from_bits([1] * 4))
        counts = machine.bus_lock_tap.window_reader().read_counts(
            100_000, 0, channel.transmission_end
        ).values
        busy = counts[counts > 0]
        assert 18 <= np.median(busy) <= 21


class TestValidation:
    def test_bad_lock_period(self, machine, message8):
        with pytest.raises(ChannelError):
            MemoryBusCovertChannel(
                machine, ChannelConfig(message8), lock_period=0
            )

    def test_bad_samples_per_bit(self, machine, message8):
        with pytest.raises(ChannelError):
            MemoryBusCovertChannel(
                machine, ChannelConfig(message8), samples_per_bit=0
            )
