"""Focused tests for verdict sinks: ordering, close delivery, metrics."""

import numpy as np

from repro.core.report import DetectionReport
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    BurstAnalyzer,
    CallbackSink,
    CollectingSink,
    DetectionSession,
    MetricsSink,
    QuantumObservation,
    WindowCounts,
)


def _obs(quantum, width=1000):
    return QuantumObservation(
        quantum=quantum,
        t0=quantum * width,
        t1=(quantum + 1) * width,
        counts={"membus": WindowCounts(np.zeros(4, dtype=np.int64))},
        conflicts=None,
    )


def _session(*sinks):
    session = DetectionSession(sinks=list(sinks))
    session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
    return session


class _OrderProbe:
    """Sink that appends (tag, event, quantum) to a shared journal."""

    def __init__(self, tag, journal):
        self.tag = tag
        self.journal = journal

    def on_quantum(self, quantum, report):
        self.journal.append((self.tag, "quantum", quantum))

    def on_close(self, report):
        self.journal.append((self.tag, "close", None))


class TestSinkDispatch:
    def test_sinks_called_in_registration_order(self):
        journal = []
        session = _session(
            _OrderProbe("a", journal), _OrderProbe("b", journal)
        )
        session.push_quantum(_obs(0))
        session.push_quantum(_obs(1))
        session.close()
        assert journal == [
            ("a", "quantum", 0),
            ("b", "quantum", 0),
            ("a", "quantum", 1),
            ("b", "quantum", 1),
            ("a", "close", None),
            ("b", "close", None),
        ]

    def test_close_delivers_final_report_to_every_sink(self):
        collect_a, collect_b = CollectingSink(), CollectingSink()
        session = _session(collect_a, collect_b)
        session.push_quantum(_obs(0))
        final = session.close()
        assert isinstance(final, DetectionReport)
        assert collect_a.final is final
        assert collect_b.final is final

    def test_callback_sink_tolerates_missing_callbacks(self):
        session = _session(CallbackSink())  # neither callback given
        session.push_quantum(_obs(0))
        session.close()

    def test_callback_sink_invokes_callbacks(self):
        seen = []
        sink = CallbackSink(
            on_quantum=lambda q, r: seen.append(("q", q)),
            on_close=lambda r: seen.append(("close", None)),
        )
        session = _session(sink)
        session.push_quantum(_obs(0))
        session.close()
        assert seen == [("q", 0), ("close", None)]


class TestMetricsSink:
    def test_counts_reports_and_closes(self):
        reg = MetricsRegistry()
        session = _session(MetricsSink(metrics=reg))
        session.push_quantum(_obs(0))
        session.push_quantum(_obs(1))
        session.close()
        assert reg.counter("cchunter_sink_reports_total").value == 2
        assert reg.counter("cchunter_sink_closes_total").value == 1

    def test_records_first_detection(self):
        class _Verdict:
            unit = "membus"
            detected = True

        class _Report:
            verdicts = (_Verdict(),)

        reg = MetricsRegistry()
        sink = MetricsSink(metrics=reg)
        sink.on_quantum(3, _Report())
        sink.on_quantum(4, _Report())
        detected = reg.counter(
            "cchunter_sink_detected_verdicts_total", labels={"unit": "membus"}
        )
        assert detected.value == 2

    def test_clear_verdicts_record_nothing_per_unit(self):
        reg = MetricsRegistry()
        session = DetectionSession(
            sinks=[MetricsSink(metrics=reg)], metrics=reg
        )
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100, metrics=reg))
        session.push_quantum(_obs(0))  # all-zero counts: verdict stays clear
        detected = reg.counter(
            "cchunter_sink_detected_verdicts_total", labels={"unit": "membus"}
        )
        assert detected.value == 0
        first = reg.gauge(
            "cchunter_first_detection_quantum", labels={"unit": "membus"}
        )
        assert first.value == -1
