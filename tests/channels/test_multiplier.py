"""Tests for the multiplier variant of the SMT contention channel."""

import numpy as np
import pytest

from repro.channels.base import ChannelConfig
from repro.channels.divider import MultiplierCovertChannel
from repro.core.detector import AuditUnit, CCHunter
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from tests.sim.tap_reference import segment_mass


def run_channel(message, bandwidth=1000.0, seed=3, core=0):
    machine = Machine(seed=seed)
    channel = MultiplierCovertChannel(
        machine, ChannelConfig(message=message, bandwidth_bps=bandwidth)
    )
    channel.deploy(core=core)
    machine.run_until(channel.transmission_end + 1)
    return machine, channel


class TestTransmission:
    def test_decodes_exactly(self, message8):
        _, channel = run_channel(message8)
        assert channel.decoded_bits == list(message8.bits)

    def test_lower_latencies_than_divider(self, message8):
        from repro.channels.divider import DividerCovertChannel

        machine = Machine(seed=1)
        mul = MultiplierCovertChannel(machine, ChannelConfig(message8))
        div = DividerCovertChannel(Machine(seed=1), ChannelConfig(message8))
        assert mul._lat_idle < div._lat_idle
        assert mul.decode_threshold < div.decode_threshold


class TestIndicatorEvents:
    def test_events_land_in_multiplier_tap(self, message8):
        machine, _ = run_channel(message8)
        assert segment_mass(machine.multiplier_wait_taps[0]) > 0
        assert segment_mass(machine.divider_wait_taps[0]) == 0

    def test_wait_density_lower_than_divider(self):
        """The multiplier's pipelined contention fires sparser events."""
        machine, channel = run_channel(Message.from_bits([1, 1]))
        reader = machine.multiplier_wait_tap_for(0).window_reader()
        counts = reader.read_counts(500, 0, channel.transmission_end).expand()
        busy = counts[counts > 0]
        assert 40 <= np.median(busy) <= 55  # ~48 vs the divider's ~96


class TestDetection:
    def test_detected_end_to_end(self):
        machine = Machine(seed=5)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.MULTIPLIER, core=0)
        channel = MultiplierCovertChannel(
            machine,
            ChannelConfig(message=Message.random(24, 5),
                          bandwidth_bps=100.0),
        )
        channel.deploy(core=0)
        machine.run_quanta(channel.quanta_needed())
        verdict = hunter.report().verdicts[0]
        assert verdict.detected
        assert "multiplier" in verdict.unit

    def test_divider_audit_blind_to_multiplier_channel(self):
        """Auditing the wrong unit sees nothing — the administrator must
        pick units to watch (the paper's two-monitor tradeoff)."""
        machine = Machine(seed=5)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.DIVIDER, core=0)
        channel = MultiplierCovertChannel(
            machine,
            ChannelConfig(message=Message.random(24, 5),
                          bandwidth_bps=100.0),
        )
        channel.deploy(core=0)
        machine.run_quanta(channel.quanta_needed())
        assert not hunter.report().verdicts[0].detected

    def test_multiplier_audit_requires_core(self):
        hunter = CCHunter(Machine(seed=1))
        from repro.errors import DetectionError

        with pytest.raises(DetectionError):
            hunter.audit(AuditUnit.MULTIPLIER)
