"""End-to-end integration tests: the paper's headline claims in miniature.

Each test runs a full pipeline — machine, channel (or benign pair), noise,
CC-Hunter — and checks the final verdict, exactly like the benchmarks but
at test-friendly scale.
"""

import pytest

from repro import (
    AuditUnit,
    CacheCovertChannel,
    CCHunter,
    ChannelConfig,
    DividerCovertChannel,
    Machine,
    MemoryBusCovertChannel,
    Message,
    background_noise_processes,
)
from repro.workloads import workload_process
from repro.workloads.spec import bzip2, gobmk


class TestChannelDetection:
    def test_membus_channel_detected_with_noise(self):
        machine = Machine(seed=11)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        message = Message.from_bits([1, 0, 1, 1, 0, 1, 0, 0, 1, 1] * 3)
        channel = MemoryBusCovertChannel(
            machine, ChannelConfig(message=message, bandwidth_bps=100.0)
        )
        channel.deploy(trojan_ctx=0, spy_ctx=2)
        quanta = channel.quanta_needed()
        background_noise_processes(
            machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=11
        )
        machine.run_quanta(quanta)
        verdict = hunter.report().verdict_for("membus")
        assert verdict.detected
        assert channel.bit_error_rate() == 0.0

    def test_divider_channel_detected_with_noise(self):
        machine = Machine(seed=12)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.DIVIDER, core=0)
        message = Message.random(30, 12)
        channel = DividerCovertChannel(
            machine, ChannelConfig(message=message, bandwidth_bps=100.0)
        )
        channel.deploy(core=0)
        quanta = channel.quanta_needed()
        background_noise_processes(
            machine, n_quanta=quanta, avoid_contexts=(0, 1), seed=12
        )
        machine.run_quanta(quanta)
        assert hunter.report().verdicts[0].detected

    def test_cache_channel_detected_with_noise(self):
        machine = Machine(seed=13)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.CACHE)
        message = Message.random(10, 13)
        channel = CacheCovertChannel(
            machine,
            ChannelConfig(message=message, bandwidth_bps=100.0),
            n_sets_total=128,
        )
        channel.deploy()
        quanta = channel.quanta_needed()
        background_noise_processes(
            machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=13
        )
        machine.run_quanta(quanta)
        verdict = hunter.report().verdicts[0]
        assert verdict.detected
        # Oscillation wavelength near the set count.
        assert verdict.dominant_period == pytest.approx(128, rel=0.25)

    def test_detection_robust_across_seeds(self):
        for seed in (21, 22, 23):
            machine = Machine(seed=seed)
            hunter = CCHunter(machine)
            hunter.audit(AuditUnit.MEMORY_BUS)
            channel = MemoryBusCovertChannel(
                machine,
                ChannelConfig(
                    message=Message.random(20, seed), bandwidth_bps=100.0
                ),
            )
            channel.deploy(trojan_ctx=0, spy_ctx=2)
            quanta = channel.quanta_needed()
            background_noise_processes(
                machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=seed
            )
            machine.run_quanta(quanta)
            assert hunter.report().verdicts[0].detected, f"seed {seed}"


class TestBenignWorkloads:
    def test_no_false_alarm_on_benign_pair(self):
        machine = Machine(seed=31)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        hunter.audit(AuditUnit.DIVIDER, core=0)
        machine.spawn(workload_process(gobmk, machine, 4, seed=1), ctx=0)
        machine.spawn(workload_process(bzip2, machine, 4, seed=2), ctx=1)
        machine.run_quanta(4)
        report = hunter.report()
        assert not report.any_detected


class TestFullStack:
    def test_simultaneous_bus_and_divider_audit(self):
        """One auditor watches two units; only the attacked one alarms."""
        machine = Machine(seed=51)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        hunter.audit(AuditUnit.DIVIDER, core=0)
        channel = MemoryBusCovertChannel(
            machine,
            ChannelConfig(message=Message.random(20, 51),
                          bandwidth_bps=100.0),
        )
        channel.deploy(trojan_ctx=0, spy_ctx=2)
        machine.run_quanta(channel.quanta_needed())
        report = hunter.report()
        assert report.verdict_for("membus").detected
        assert not report.verdict_for("divider(core 0)").detected


class TestSuperSecureMode:
    def test_three_unit_audit_with_expanded_auditor(self):
        """Super-secure environments can monitor every unit at once by
        provisioning more monitor slots (Section V-A)."""
        from repro.config import AuditorConfig
        from repro.hardware.auditor import CCAuditor

        machine = Machine(seed=61)
        hunter = CCHunter(
            machine, auditor=CCAuditor(AuditorConfig(n_monitors=9))
        )
        hunter.audit(AuditUnit.MEMORY_BUS)
        for core in range(4):
            hunter.audit(AuditUnit.DIVIDER, core=core)
            hunter.audit(AuditUnit.MULTIPLIER, core=core)
        assert hunter.monitors_in_use == 9

        channel = DividerCovertChannel(
            machine,
            ChannelConfig(message=Message.random(20, 61),
                          bandwidth_bps=100.0),
        )
        channel.deploy(core=2)
        machine.run_quanta(channel.quanta_needed())
        report = hunter.report()
        assert report.verdict_for("divider(core 2)").detected
        assert not report.verdict_for("divider(core 0)").detected
        assert not report.verdict_for("multiplier(core 2)").detected


class TestOfflineForensics:
    def test_record_analyze_loop(self, tmp_path):
        """Record online with the two-monitor auditor, then analyze every
        unit offline from the archive."""
        from repro.traces import analyze_traces, export_traces, load_traces

        machine = Machine(seed=71)
        channel = MemoryBusCovertChannel(
            machine,
            ChannelConfig(message=Message.random(30, 71),
                          bandwidth_bps=100.0),
        )
        channel.deploy(trojan_ctx=0, spy_ctx=2)
        machine.run_quanta(channel.quanta_needed())
        path = tmp_path / "forensics.npz"
        export_traces(machine, path)
        report = analyze_traces(load_traces(path))
        assert report.verdict_for("membus").detected


class TestConcurrentChannels:
    def test_two_channels_two_monitors(self):
        """Both auditor slots working at once: a bus channel and a divider
        channel run concurrently and each monitor convicts its own."""
        machine = Machine(seed=81)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        hunter.audit(AuditUnit.DIVIDER, core=1)

        bus_channel = MemoryBusCovertChannel(
            machine,
            ChannelConfig(message=Message.random(30, 81),
                          bandwidth_bps=100.0),
        )
        bus_channel.deploy(trojan_ctx=0, spy_ctx=4)
        div_channel = DividerCovertChannel(
            machine,
            ChannelConfig(message=Message.random(30, 82),
                          bandwidth_bps=100.0),
        )
        div_channel.deploy(core=1)

        quanta = max(bus_channel.quanta_needed(), div_channel.quanta_needed())
        machine.run_quanta(quanta)

        report = hunter.report()
        assert report.verdict_for("membus").detected
        assert report.verdict_for("divider(core 1)").detected
        assert bus_channel.bit_error_rate() == 0.0
        assert div_channel.bit_error_rate() == 0.0
