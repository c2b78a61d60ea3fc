"""Tests for the streaming detection pipeline (sources → session → sinks)."""

import io
import json

import numpy as np
import pytest

from repro.config import CLUSTERING_WINDOW_QUANTA
from repro.core.detector import AuditUnit, CCHunter
from repro.errors import DetectionError
from repro.pipeline import (
    BurstAnalyzer,
    ChannelKind,
    CollectingSink,
    DetectionSession,
    MachineEventSource,
    QuantumObservation,
    StreamPrinterSink,
    WindowCounts,
    build_session_from_specs,
)
from repro.sim.process import BusLockBurst, Process
from repro.traces import ArchiveEventSource, export_traces


def _obs(quantum, counts, t0=None, t1=None, width=1000):
    t0 = quantum * width if t0 is None else t0
    t1 = t0 + width if t1 is None else t1
    return QuantumObservation(
        quantum=quantum,
        t0=t0,
        t1=t1,
        counts={name: WindowCounts(c) for name, c in counts.items()},
        conflicts=None,
    )


class TestSession:
    def test_duplicate_unit_rejected(self):
        session = DetectionSession()
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        with pytest.raises(DetectionError):
            session.add_analyzer(BurstAnalyzer(unit="membus", dt=200))

    def test_unknown_unit_rejected(self):
        with pytest.raises(DetectionError):
            DetectionSession().analyzer_for("membus")

    def test_missing_channel_counts_degrades_not_raises(self):
        """A lost readout is a gap + DEGRADED health, not an exception."""
        session = DetectionSession()
        analyzer = session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        session.push_quantum(_obs(0, counts={}))
        session.push_quantum(_obs(1, {"membus": np.zeros(4, dtype=np.int64)}))
        assert analyzer.gaps == 1
        verdict = session.current_verdicts().verdict_for("membus")
        assert verdict.health == "degraded"
        assert verdict.quanta_analyzed == 2
        assert any("gap" in note for note in verdict.notes)

    def test_verdicts_available_every_quantum(self):
        session = DetectionSession()
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        for quantum in range(3):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(10, dtype=np.int64)})
            )
            report = session.current_verdicts()
            assert report.verdict_for("membus").quanta_analyzed == quantum + 1

    def test_burst_history_is_bounded(self):
        analyzer = BurstAnalyzer(unit="membus", dt=100)
        session = DetectionSession()
        session.add_analyzer(analyzer)
        for quantum in range(CLUSTERING_WINDOW_QUANTA + 40):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(4, dtype=np.int64)})
            )
        assert len(analyzer.histograms) == CLUSTERING_WINDOW_QUANTA
        assert analyzer.quanta_seen == CLUSTERING_WINDOW_QUANTA + 40
        verdict = session.current_verdicts().verdict_for("membus")
        assert verdict.quanta_analyzed == CLUSTERING_WINDOW_QUANTA + 40


class TestSinks:
    def test_collecting_sink_sees_every_quantum(self, small_machine):
        sink = CollectingSink()
        hunter = CCHunter(small_machine, sinks=[sink])
        hunter.audit(AuditUnit.MEMORY_BUS, dt=1000)

        def trojan(proc):
            yield BusLockBurst(count=100, period=100)

        small_machine.spawn(Process("t", body=trojan), ctx=0)
        small_machine.run_quanta(3)
        assert [q for q, _r in sink.reports] == [0, 1, 2]
        final = hunter.session.close()
        assert sink.final is final

    def test_stream_printer_text_lines(self):
        buffer = io.StringIO()
        session = DetectionSession(sinks=[StreamPrinterSink(stream=buffer)])
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        for quantum in range(2):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(4, dtype=np.int64)})
            )
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert "membus" in lines[0]

    def test_stream_printer_jsonl(self):
        buffer = io.StringIO()
        session = DetectionSession(
            sinks=[StreamPrinterSink(stream=buffer, jsonl=True)]
        )
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        session.push_quantum(_obs(0, {"membus": np.zeros(4, dtype=np.int64)}))
        payload = json.loads(buffer.getvalue())
        assert payload["quantum"] == 0
        assert payload["report"]["verdicts"][0]["unit"] == "membus"


class TestMachineEventSource:
    def test_duplicate_channel_rejected(self, small_machine):
        source = MachineEventSource(small_machine)
        source.add_burst_channel("membus", small_machine.bus_lock_tap, 1000)
        with pytest.raises(DetectionError):
            source.add_burst_channel("membus", small_machine.bus_lock_tap, 500)

    def test_many_sessions_off_one_source(self, small_machine):
        """Concurrent audit sessions share one source's observations."""
        source = MachineEventSource(small_machine)
        source.add_burst_channel("membus", small_machine.bus_lock_tap, 1000)
        sessions = [
            build_session_from_specs(source.channels()) for _ in range(3)
        ]
        for session in sessions:
            source.subscribe(session)

        def trojan(proc):
            yield BusLockBurst(count=200, period=100)

        small_machine.spawn(Process("t", body=trojan), ctx=0)
        small_machine.run_quanta(2)
        verdicts = [
            s.current_verdicts().verdict_for("membus") for s in sessions
        ]
        assert all(v == verdicts[0] for v in verdicts)
        assert verdicts[0].quanta_analyzed == 2


class TestArchiveEventSource:
    def test_channels_cover_recorded_units(self, small_machine, tmp_path):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.MEMORY_BUS)

        def trojan(proc):
            yield BusLockBurst(count=50, period=200)

        small_machine.spawn(Process("t", body=trojan), ctx=0)
        small_machine.run_quanta(2)
        archive = export_traces(small_machine, tmp_path / "s.npz")
        source = ArchiveEventSource(archive)
        kinds = {spec.name: spec.kind for spec in source.channels()}
        assert kinds["membus"] is ChannelKind.BURST
        assert kinds["cache"] is ChannelKind.CONFLICT

    def test_observations_cover_every_quantum(self, small_machine, tmp_path):
        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        small_machine.run_quanta(3)
        archive = export_traces(small_machine, tmp_path / "s.npz")
        observations = list(ArchiveEventSource(archive))
        assert [obs.quantum for obs in observations] == [0, 1, 2]
        assert observations[0].t1 == small_machine.quantum_cycles


class TestDetectionLatencyTracking:
    def test_eager_first_detection_matches_lazy(self):
        """Only a session that evaluated a verdict at every quantum knows
        when its unit first fired: the lazy run raises instead of
        reconstructing an answer, and the eager run names quantum 1."""
        from repro.analysis.figures import run_channel_session
        from repro.util.bitstream import Message

        message = Message.from_bits([1, 0] * 15)
        lazy = run_channel_session(
            "membus", message, bandwidth_bps=100.0, seed=91, noise=False
        )
        eager = run_channel_session(
            "membus", message, bandwidth_bps=100.0, seed=91, noise=False,
            track_detection_latency=True,
        )
        with pytest.raises(DetectionError, match="track_detection_latency"):
            lazy.hunter.first_detection_quantum(AuditUnit.MEMORY_BUS)
        eager_q = eager.hunter.first_detection_quantum(AuditUnit.MEMORY_BUS)
        assert eager_q == 1

    def test_lazy_first_detection_counts_gaps_after_detection(self):
        """A gap counts a quantum but adds no window; the eager record
        still names the quantum the verdict first fired, and the lazy
        session, which evaluated no verdict, raises."""
        import dataclasses

        from repro.pipeline.session import build_session_from_specs
        from repro.serve.traffic import CHANNELS, covert_observations

        observations = [
            dataclasses.replace(obs, counts={}) if obs.quantum == 30 else obs
            for obs in covert_observations(40, seed=3)
        ]
        lazy = build_session_from_specs(CHANNELS)
        eager = build_session_from_specs(
            CHANNELS, track_detection_latency=True
        )
        for obs in observations:
            lazy.push_quantum(obs)
            eager.push_quantum(obs)
        assert lazy.analyzer_for("membus").gaps == 1
        assert eager.analyzer_for("membus").gaps == 1
        assert eager.first_detection_quantum("membus") == 1
        with pytest.raises(DetectionError):
            lazy.first_detection_quantum("membus")

    def test_eager_session_without_detection_returns_none(self):
        """An eager session that never detected answers None: its record
        covers every quantum, so its silence means "not detected yet"."""
        session = DetectionSession(track_detection_latency=True)
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        for quantum in range(3):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(8, dtype=np.int64)})
            )
        assert session.first_detection_quantum("membus") is None

    def test_sink_attached_mid_run_raises(self):
        """Quanta 0-3 were pushed without a verdict, so a sink attached
        after them leaves the record incomplete: the session raises
        instead of answering, and its gauge does not report quantum 4,
        the first evaluated quantum whose verdict fired, for the eager
        record's quantum 1."""
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.traffic import CHANNELS, covert_observations

        observations = list(covert_observations(10, seed=3))
        eager = build_session_from_specs(
            CHANNELS, track_detection_latency=True, metrics=MetricsRegistry()
        )
        late = build_session_from_specs(CHANNELS, metrics=MetricsRegistry())
        for obs in observations:
            if obs.quantum == 4:
                late.sinks.append(CollectingSink())  # eager from here on
            eager.push_quantum(obs)
            late.push_quantum(obs)
        assert eager.first_detection_quantum("membus") == 1
        assert late.current_verdicts().verdict_for("membus").detected
        with pytest.raises(DetectionError, match="before the first push"):
            late.first_detection_quantum("membus")
        gauge = late.metrics.gauge(
            "cchunter_first_detection_quantum", labels={"unit": "membus"}
        )
        assert gauge.value == -1
        with pytest.raises(DetectionError, match="not being audited"):
            late.first_detection_quantum("cache")


class TestOscillationAnalyzerIncremental:
    def test_matches_batch_detector_path(self, small_machine):
        """The incremental cache analyzer must agree with a replayed batch
        computation of the same windows."""
        from repro.core.autocorr import autocorrelogram
        from repro.core.event_train import dominant_pair_series
        from repro.core.oscillation import analyze_autocorrelogram

        hunter = CCHunter(small_machine)
        hunter.audit(AuditUnit.CACHE)
        from tests.core.test_detector import TestCacheFlow

        TestCacheFlow()._pingpong(small_machine)
        small_machine.run_quanta(1)
        incremental = hunter.cache_analyses()
        assert incremental

        times, reps, vics = small_machine.cache_miss_tap.window_reader().read(
            0, small_machine.quantum_cycles
        )
        labels, _idx, _pair = dominant_pair_series(reps, vics)
        batch = analyze_autocorrelogram(
            autocorrelogram(labels, 1000), min_peak_height=0.45
        )
        assert incremental[0].significant == batch.significant
        assert incremental[0].max_peak == pytest.approx(
            batch.max_peak, abs=1e-9
        )
