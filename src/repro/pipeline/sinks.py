"""Verdict sinks: downstream consumers of per-quantum verdict updates.

Sinks receive the full :class:`~repro.core.report.DetectionReport` after
every quantum (``on_quantum``) and once when the session closes
(``on_close``). They are the pipeline's integration points: collect for
tests and notebooks, print text or JSON lines for operators and log
shippers, or call back into arbitrary code.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, List, Optional, Protocol, TextIO, Tuple

from repro.core.report import DetectionReport, UnitVerdict
from repro.obs.metrics import MetricsRegistry, get_default


class VerdictSink(Protocol):
    """A consumer of per-quantum verdict updates."""

    def on_quantum(self, quantum: int, report: DetectionReport) -> None: ...

    def on_close(self, report: DetectionReport) -> None: ...


class CollectingSink:
    """Keeps every per-quantum report in memory (tests, notebooks).

    A unit's first detection is the session's record:
    :meth:`~repro.pipeline.session.DetectionSession.first_detection_quantum`.
    """

    def __init__(self):
        self.reports: List[Tuple[int, DetectionReport]] = []
        self.final: Optional[DetectionReport] = None

    def on_quantum(self, quantum: int, report: DetectionReport) -> None:
        self.reports.append((quantum, report))

    def on_close(self, report: DetectionReport) -> None:
        self.final = report


def _verdict_line(verdict: UnitVerdict) -> str:
    flag = "LIKELY" if verdict.detected else "clear"
    if verdict.method == "burst":
        lr = (
            f"{verdict.max_likelihood_ratio:.3f}"
            if verdict.max_likelihood_ratio is not None
            else "n/a"
        )
        return f"{verdict.unit}: {flag} lr={lr}"
    peak = f"{verdict.max_peak:.3f}" if verdict.max_peak is not None else "n/a"
    return (
        f"{verdict.unit}: {flag} oscillating={verdict.oscillating_windows}"
        f" peak={peak}"
    )


class StreamPrinterSink:
    """Writes one line per quantum — human-readable or JSON lines."""

    def __init__(self, stream: Optional[TextIO] = None, jsonl: bool = False):
        self.stream = stream if stream is not None else sys.stdout
        self.jsonl = jsonl

    def on_quantum(self, quantum: int, report: DetectionReport) -> None:
        if self.jsonl:
            line = json.dumps(
                {"quantum": quantum, "report": report.to_dict()},
                sort_keys=True,
            )
        else:
            line = f"[quantum {quantum:4d}] " + " | ".join(
                _verdict_line(v) for v in report.verdicts
            )
        print(line, file=self.stream, flush=True)

    def on_close(self, report: DetectionReport) -> None:
        pass


class MetricsSink:
    """Folds per-quantum verdict updates into a metrics registry.

    The observability counterpart of :class:`StreamPrinterSink`: instead
    of printing each report it counts them and tallies per-unit detected
    verdicts, so a dashboard scraping the registry sees detection state
    without any report parsing. Attach it to any session (or pass it to
    ``analyze_traces``) to make replayed archives export the same metric
    names live sessions do. Each unit's first-detection quantum is the
    session's ``cchunter_first_detection_quantum`` gauge, which a session
    with a sink attached always sets.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else get_default()
        self._m_reports = self.metrics.counter(
            "cchunter_sink_reports_total",
            "per-quantum verdict reports dispatched to sinks",
        )
        self._m_closes = self.metrics.counter(
            "cchunter_sink_closes_total",
            "session closes observed",
        )
        self._detected: Dict[str, object] = {}

    def _detected_counter(self, unit: str):
        counter = self._detected.get(unit)
        if counter is None:
            counter = self._detected[unit] = self.metrics.counter(
                "cchunter_sink_detected_verdicts_total",
                "per-quantum reports in which the unit's verdict fired",
                labels={"unit": unit},
            )
        return counter

    def on_quantum(self, quantum: int, report: DetectionReport) -> None:
        self._m_reports.inc()
        for verdict in report.verdicts:
            if verdict.detected:
                self._detected_counter(verdict.unit).inc()

    def on_close(self, report: DetectionReport) -> None:
        self._m_closes.inc()


class TimeseriesSink:
    """Drives a :class:`~repro.obs.timeseries.MetricsSampler` per quantum.

    Attach to any session (or pass to ``analyze_traces``) to get a
    quantum-aligned metrics time series without touching the source:
    every per-quantum report takes one sample stamped with its quantum,
    and the close event takes one final sample so the series always ends
    with the run's terminal state.
    """

    def __init__(self, sampler):
        self.sampler = sampler

    def on_quantum(self, quantum: int, report: DetectionReport) -> None:
        self.sampler.sample(quantum=quantum)

    def on_close(self, report: DetectionReport) -> None:
        self.sampler.sample(label="close")


class CallbackSink:
    """Adapts plain callables to the sink protocol."""

    def __init__(
        self,
        on_quantum: Optional[Callable[[int, DetectionReport], None]] = None,
        on_close: Optional[Callable[[DetectionReport], None]] = None,
    ):
        self._on_quantum = on_quantum
        self._on_close = on_close

    def on_quantum(self, quantum: int, report: DetectionReport) -> None:
        if self._on_quantum is not None:
            self._on_quantum(quantum, report)

    def on_close(self, report: DetectionReport) -> None:
        if self._on_close is not None:
            self._on_close(report)
