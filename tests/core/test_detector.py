"""Tests for the CCHunter facade (audit slots, per-quantum flow, verdicts)."""

import pytest

from repro.core.detector import AuditUnit, CCHunter
from repro.errors import DetectionError, HardwareError
from repro.sim.engine import Priority
from repro.sim.process import (
    BusLockBurst,
    CacheAccessSeries,
    DividerLoop,
    DividerSaturate,
    Process,
    WaitUntil,
)


class TestAuditSetup:
    def test_two_unit_limit(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        hunter.audit(AuditUnit.DIVIDER, core=0)
        with pytest.raises(HardwareError):
            hunter.audit(AuditUnit.CACHE)

    def test_divider_needs_core(self, small_machine):
        hunter = CCHunter(small_machine)
        with pytest.raises(DetectionError):
            hunter.audit(AuditUnit.DIVIDER)

    def test_cache_once(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.CACHE)
        with pytest.raises((DetectionError, HardwareError)):
            hunter.audit(AuditUnit.CACHE)

    def test_monitors_in_use(self, small_machine):
        hunter = CCHunter(small_machine)
        assert hunter.monitors_in_use == 0
        hunter.audit(AuditUnit.MEMORY_BUS)
        assert hunter.monitors_in_use == 1

    def test_bad_window_fraction(self, small_machine):
        with pytest.raises(DetectionError):
            CCHunter(small_machine, window_fraction=0.0)

    def test_custom_dt(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.MEMORY_BUS, dt=5000)
        assert hunter.auditor.slot(0).dt == 5000


class TestBurstFlow:
    def test_histogram_recorded_per_quantum(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.MEMORY_BUS, dt=1000)

        def trojan(proc):
            yield BusLockBurst(count=100, period=100)

        small_machine.spawn(Process("t", body=trojan), ctx=0)
        small_machine.run_quanta(2)
        hists = hunter.burst_histograms(AuditUnit.MEMORY_BUS)
        assert len(hists) == 2
        assert hists[0].sum() > 0  # every Δt window counted

    def test_unaudited_unit_query_rejected(self, small_machine):
        hunter = CCHunter(small_machine)
        with pytest.raises(DetectionError):
            hunter.burst_histograms(AuditUnit.MEMORY_BUS)

    def test_empty_report(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        report = hunter.report()
        verdict = report.verdicts[0]
        assert not verdict.detected
        assert verdict.quanta_analyzed == 0


class TestCacheFlow:
    def _pingpong(self, machine, rounds=40, sets=24):
        """Drive a miniature covert-style ping-pong over a few sets."""
        ways = machine.config.l2.associativity

        def trojan(proc):
            for r in range(rounds):
                yield WaitUntil(r * 60_000)
                accesses = []
                for s in range(sets):
                    base = r % ways
                    order = [(s, 100 + s * 16 + ((base + w) % ways))
                             for w in range(ways)]
                    accesses.extend(order)
                yield CacheAccessSeries(accesses=tuple(accesses))

        def spy(proc):
            for r in range(rounds):
                yield WaitUntil(r * 60_000 + 35_000)
                yield CacheAccessSeries(
                    accesses=tuple((s, 999_000 + s) for s in range(sets))
                )

        machine.spawn(Process("t", body=trojan), ctx=0)
        machine.spawn(Process("s", body=spy, priority=Priority.CONSUMER),
                      ctx=2)

    def test_oscillation_detected_on_pingpong(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.CACHE)
        self._pingpong(small_machine)
        small_machine.run_quanta(1)
        verdict = hunter.report().verdicts[0]
        assert verdict.detected
        assert verdict.max_peak is not None and verdict.max_peak > 0.6

    def test_cache_analyses_exposed(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.CACHE)
        self._pingpong(small_machine)
        small_machine.run_quanta(1)
        assert len(hunter.cache_analyses()) >= 1

    def test_cache_analyses_without_audit_rejected(self, small_machine):
        hunter = CCHunter(small_machine)
        with pytest.raises(DetectionError):
            hunter.cache_analyses()

    def test_quiet_cache_not_detected(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.CACHE)
        small_machine.run_quanta(1)
        assert not hunter.report().verdicts[0].detected


class TestDividerFlow:
    def test_divider_burst_histograms(self, small_machine):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.DIVIDER, core=0)

        def trojan(proc):
            yield DividerSaturate(duration=200_000)

        def spy(proc):
            yield DividerLoop(iterations=1500, divs_per_iter=4)

        small_machine.spawn(Process("t", body=trojan), ctx=0)
        small_machine.spawn(
            Process("s", body=spy, priority=Priority.CONSUMER), ctx=1
        )
        small_machine.run_quanta(1)
        hist = hunter.burst_histograms(AuditUnit.DIVIDER, core=0)[0]
        # The saturated overlap produces the high-density mode (~96).
        assert hist[80:110].sum() > 0


class TestDetectionLatency:
    def test_cache_first_detection_quantum(self, small_machine):
        hunter = CCHunter(small_machine, track_detection_latency=True)
        hunter.audit(AuditUnit.CACHE)
        TestCacheFlow()._pingpong(small_machine)
        small_machine.run_quanta(2)
        assert hunter.first_detection_quantum(AuditUnit.CACHE) == 0

    def test_never_detected_returns_none(self, small_machine):
        hunter = CCHunter(small_machine, track_detection_latency=True)
        hunter.audit(AuditUnit.MEMORY_BUS)
        small_machine.run_quanta(2)
        assert hunter.first_detection_quantum(AuditUnit.MEMORY_BUS) is None

    def test_unaudited_unit_raises(self, small_machine):
        hunter = CCHunter(small_machine)
        with pytest.raises(DetectionError):
            hunter.first_detection_quantum(AuditUnit.MEMORY_BUS)
        with pytest.raises(DetectionError):
            hunter.first_detection_quantum(AuditUnit.CACHE)

    def test_burst_latency_matches_recurrence_onset(self):
        """A bus channel becomes detectable once >= 2 burst quanta have
        accumulated and spread."""
        from repro.channels.base import ChannelConfig
        from repro.channels.membus import MemoryBusCovertChannel
        from repro.sim.machine import Machine
        from repro.util.bitstream import Message

        machine = Machine(seed=91)
        hunter = CCHunter(machine, track_detection_latency=True)
        hunter.audit(AuditUnit.MEMORY_BUS)
        channel = MemoryBusCovertChannel(
            machine,
            ChannelConfig(message=Message.from_bits([1, 0] * 15),
                          bandwidth_bps=100.0),
        )
        channel.deploy(trojan_ctx=0, spy_ctx=2)
        machine.run_quanta(channel.quanta_needed())
        latency = hunter.first_detection_quantum(AuditUnit.MEMORY_BUS)
        assert latency is not None
        assert 0 < latency <= 2  # ~10 bits per quantum: detected early
        assert hunter.report().verdicts[0].detected
