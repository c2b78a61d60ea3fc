"""End-to-end instrumentation tests: run the stack, read the registry.

These pin the acceptance contract of docs/OBSERVABILITY.md: a detection
run against an isolated registry must populate the simulator throughput
metrics, the per-analyzer push-latency histograms, the per-unit
first-detection gauges, and the accumulator clamp/saturation counters.
"""

import numpy as np

from repro.config import MachineConfig
from repro.core.detector import AuditUnit, CCHunter
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.pipeline import (
    BurstAnalyzer,
    DetectionSession,
    QuantumObservation,
    WindowCounts,
)
from repro.sim.machine import Machine
from repro.sim.process import BusLockBurst, Process


def _run_audited_session(metrics, quanta=2):
    config = MachineConfig(os_quantum_seconds=0.002)
    machine = Machine(config=config, seed=99, metrics=metrics)
    hunter = CCHunter(
        machine, track_detection_latency=True, metrics=metrics
    )
    hunter.audit(AuditUnit.MEMORY_BUS, dt=1000)

    def trojan(proc):
        yield BusLockBurst(count=200, period=100)

    machine.spawn(Process("t", body=trojan), ctx=0)
    machine.run_quanta(quanta)
    return machine, hunter


class TestSimulatorMetrics:
    def test_quanta_events_and_throughput(self):
        reg = MetricsRegistry()
        _run_audited_session(reg, quanta=3)
        snap = reg.to_dict()["metrics"]
        assert snap["cchunter_sim_quanta_total"]["series"][0]["value"] == 3
        assert snap["cchunter_sim_events_total"]["series"][0]["value"] > 0
        assert snap["cchunter_sim_quanta_per_second"]["series"][0]["value"] > 0
        assert snap["cchunter_sim_time_ratio"]["series"][0]["value"] > 0
        quantum_wall = snap["cchunter_sim_quantum_wall_seconds"]["series"][0]
        assert quantum_wall["count"] == 3
        assert snap["cchunter_sched_placements_total"]["series"][0]["value"] > 0


class TestPipelineMetrics:
    def test_session_and_analyzer_metrics(self):
        reg = MetricsRegistry()
        _run_audited_session(reg, quanta=2)
        snap = reg.to_dict()["metrics"]
        assert snap["cchunter_session_quanta_total"]["series"][0]["value"] == 2
        push = snap["cchunter_analyzer_push_seconds"]["series"][0]
        assert push["labels"] == {"unit": "membus"}
        assert push["count"] == 2
        assert snap["cchunter_source_observations_total"]["series"][0][
            "value"
        ] == 2
        channel = snap["cchunter_source_channel_events_total"]["series"][0]
        assert channel["labels"] == {"channel": "membus"}
        assert channel["value"] > 0
        windows = snap["cchunter_analyzer_windows_total"]["series"][0]
        assert windows["value"] > 0  # one per Δt window, many per quantum

    def test_first_detection_gauge(self):
        reg = MetricsRegistry()
        _machine, hunter = _run_audited_session(reg, quanta=2)
        first = hunter.first_detection_quantum(AuditUnit.MEMORY_BUS)
        gauge = reg.gauge(
            "cchunter_first_detection_quantum", labels={"unit": "membus"}
        )
        assert gauge.value == (-1 if first is None else first)

    def test_clamp_and_saturation_counters_exist(self):
        reg = MetricsRegistry()
        _run_audited_session(reg, quanta=2)
        names = set(reg.to_dict()["metrics"])
        assert "cchunter_analyzer_clamp_events_total" in names
        assert "cchunter_analyzer_entry_saturation_total" in names

    def test_saturation_counter_fires_on_clamped_counts(self):
        """Drive a burst analyzer past the accumulator clamp directly."""
        reg = MetricsRegistry()
        session = DetectionSession(metrics=reg)
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100, metrics=reg))
        huge = np.full(200, 10**9, dtype=np.int64)
        session.push_quantum(
            QuantumObservation(
                quantum=0, t0=0, t1=100,
                counts={"membus": WindowCounts(huge)},
                conflicts=None,
            )
        )
        clamps = reg.counter(
            "cchunter_analyzer_clamp_events_total", labels={"unit": "membus"}
        )
        assert clamps.value > 0


class TestNullRegistryPath:
    def test_run_with_instrumentation_off(self):
        """NULL_REGISTRY runs the whole stack without recording anything."""
        _machine, hunter = _run_audited_session(NULL_REGISTRY, quanta=2)
        report = hunter.report()
        assert report.verdict_for("membus").quanta_analyzed == 2
        assert NULL_REGISTRY.to_dict()["metrics"] == {}


class TestCacheAnalyzerMetrics:
    def test_oscillation_train_and_window_counters(self, small_machine):
        reg = MetricsRegistry()
        hunter = CCHunter(small_machine, metrics=reg)
        hunter.audit(AuditUnit.CACHE)
        from tests.core.test_detector import TestCacheFlow

        TestCacheFlow()._pingpong(small_machine)
        small_machine.run_quanta(1)
        hunter.session.close()
        snap = reg.to_dict()["metrics"]
        trains = snap["cchunter_analyzer_train_events_total"]["series"][0]
        assert trains["labels"] == {"unit": "cache"}
        assert trains["value"] > 0
        windows = snap["cchunter_analyzer_windows_total"]["series"][0]
        assert windows["labels"] == {"unit": "cache"}
        assert windows["value"] >= 1
        assert snap["cchunter_analyzer_last_train_length"]["series"][0][
            "value"
        ] > 0
