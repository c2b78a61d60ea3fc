"""Detection sessions: fan observations out, render verdicts any time.

A :class:`DetectionSession` owns one analyzer per audited unit and is
itself an :class:`~repro.pipeline.source.ObservationConsumer`, so it can
subscribe to any EventSource. Verdicts are available after every quantum
via :meth:`current_verdicts`; when sinks are attached (or first-detection
tracking is on) the session evaluates them eagerly each quantum,
notifies the sinks and records each unit's first detection.

The session degrades instead of dying (docs/ROBUSTNESS.md):

- **Analyzer quarantine** — an analyzer that raises during ``push`` or
  ``verdict`` no longer kills the session. Its first error moves it to
  ``DEGRADED`` health; ``fail_after`` *consecutive* push errors move it
  to ``FAILED`` and stop feeding it. Verdicts carry the combined health
  (:class:`~repro.pipeline.health.Health`) of the analyzer's own state
  and the session's quarantine overlay.
- **Sink isolation** — each sink's ``on_quantum``/``on_close`` runs in
  its own error boundary with bounded retry and exponential backoff, so
  one bad sink can neither starve the other sinks nor abort the
  session; a sink that keeps failing is quarantined from per-quantum
  dispatch but still gets its ``on_close``, which is guaranteed to be
  attempted for every sink exactly once per close.

Every session builds its analyzers through one factory,
:func:`analyzer_for`, with the paper's detection parameters:
:class:`~repro.core.detector.CCHunter` passes the auditor slot it
programmed for a burst channel, while trace replay and each served
tenant call :func:`build_session_from_specs`, whose burst analyzers fold
through a fresh slot of their own.
"""

from __future__ import annotations

import dataclasses
import time
from time import perf_counter
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.report import DetectionReport, UnitVerdict
from repro.errors import DetectionError
from repro.hardware.auditor import MonitorSlot
from repro.obs.log import get_logger
from repro.obs.metrics import Gauge, Histogram, MetricsRegistry, get_default
from repro.obs.tracing import trace_span
from repro.pipeline.analyzers import Analyzer, BurstAnalyzer, OscillationAnalyzer
from repro.pipeline.health import Health, worst
from repro.pipeline.sinks import VerdictSink
from repro.pipeline.source import ChannelKind, ChannelSpec, QuantumObservation

_log = get_logger("pipeline.session")


class _UnitState:
    """The session's quarantine overlay for one analyzer."""

    __slots__ = ("errors", "consecutive", "health")

    def __init__(self):
        self.errors = 0
        self.consecutive = 0
        self.health = Health.OK


class _SinkState:
    """Failure bookkeeping for one attached sink."""

    __slots__ = ("failures", "quarantined")

    def __init__(self):
        self.failures = 0
        self.quarantined = False


class DetectionSession:
    """An online CC-Hunter detection pipeline, decoupled from any source.

    An *eager* session (sinks attached, or ``track_detection_latency``)
    evaluates every unit's verdict at each pushed quantum, as the
    auditor's daemon does at each OS quantum. Eager since its first
    push, it records the quantum at which each unit first fires:
    :meth:`first_detection_quantum` and the
    ``cchunter_first_detection_quantum`` gauge read that record. A
    *lazy* session evaluates verdicts only when asked, so it has none.
    """

    def __init__(
        self,
        sinks: Iterable[VerdictSink] = (),
        track_detection_latency: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        fail_after: int = 8,
        sink_max_retries: int = 2,
        sink_backoff_base: float = 0.05,
        sink_fail_limit: int = 3,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._analyzers: Dict[str, Analyzer] = {}
        self.sinks = list(sinks)
        self.track_detection_latency = track_detection_latency
        self.quanta_pushed = 0
        self._first_detection: Dict[str, int] = {}
        #: Quanta whose verdicts were evaluated eagerly (== quanta_pushed
        #: iff the session has been eager for its whole life so far).
        self._quanta_evaluated = 0
        #: Consecutive push errors before an analyzer is FAILED.
        self.fail_after = max(1, int(fail_after))
        #: Redelivery attempts per sink dispatch, with exponential
        #: backoff starting at ``sink_backoff_base`` seconds.
        self.sink_max_retries = max(0, int(sink_max_retries))
        self.sink_backoff_base = float(sink_backoff_base)
        #: Exhausted dispatches before a sink stops getting on_quantum.
        self.sink_fail_limit = max(1, int(sink_fail_limit))
        self._sleep = sleep
        self._unit_states: Dict[str, _UnitState] = {}
        self._sink_states: Dict[int, _SinkState] = {}
        #: Set by :meth:`close`; a closed session rejects further pushes
        #: and replays its final report on repeated closes.
        self._final_report: Optional[DetectionReport] = None
        self.metrics = metrics if metrics is not None else get_default()
        self._m_quanta = self.metrics.counter(
            "cchunter_session_quanta_total",
            "quantum observations folded into the session",
        )
        self._m_verdict = self.metrics.histogram(
            "cchunter_session_verdict_seconds",
            "wall time of one eager per-quantum verdict evaluation",
        )
        self._m_sinks = self.metrics.histogram(
            "cchunter_session_sink_seconds",
            "wall time of one per-quantum sink dispatch",
        )
        self._m_sink_errors = self.metrics.counter(
            "cchunter_sink_errors_total",
            "exceptions raised by sinks (every attempt, every method)",
        )
        self._m_sink_retries = self.metrics.counter(
            "cchunter_sink_retries_total",
            "sink dispatch retries after a sink raised",
        )
        self._push_hists: Dict[str, Histogram] = {}
        self._first_gauges: Dict[str, Gauge] = {}
        self._error_counters: Dict[str, object] = {}

    # ------------------------------------------------------------- topology

    @property
    def analyzers(self) -> Tuple[Analyzer, ...]:
        return tuple(self._analyzers.values())

    @property
    def units(self) -> Tuple[str, ...]:
        return tuple(self._analyzers)

    def add_analyzer(self, analyzer: Analyzer) -> Analyzer:
        if analyzer.unit in self._analyzers:
            raise DetectionError(
                f"unit {analyzer.unit!r} already has an analyzer"
            )
        self._analyzers[analyzer.unit] = analyzer
        self._unit_states[analyzer.unit] = _UnitState()
        self._push_hists[analyzer.unit] = self.metrics.histogram(
            "cchunter_analyzer_push_seconds",
            "wall time of one analyzer push (one quantum observation)",
            labels={"unit": analyzer.unit},
        )
        self._error_counters[analyzer.unit] = self.metrics.counter(
            "cchunter_analyzer_errors_total",
            "exceptions raised by the analyzer and absorbed by quarantine",
            labels={"unit": analyzer.unit},
        )
        gauge = self.metrics.gauge(
            "cchunter_first_detection_quantum",
            "quantum index of the unit's first detection (-1: none yet)",
            labels={"unit": analyzer.unit},
        )
        gauge.set(-1)
        self._first_gauges[analyzer.unit] = gauge
        return analyzer

    def analyzer_for(self, unit: str) -> Analyzer:
        try:
            return self._analyzers[unit]
        except KeyError:
            raise DetectionError(f"{unit} is not being audited") from None

    # --------------------------------------------------------------- health

    def unit_health(self, unit: str) -> Health:
        """Combined health of one unit: analyzer state + quarantine."""
        analyzer = self.analyzer_for(unit)
        own = getattr(analyzer, "health", Health.OK)
        return worst((own, self._unit_states[unit].health))

    @property
    def health(self) -> Health:
        """Worst health across the session's units (OK when empty)."""
        return worst(self.unit_health(unit) for unit in self._analyzers)

    def _record_analyzer_error(self, unit: str, exc: Exception) -> None:
        state = self._unit_states[unit]
        state.errors += 1
        state.consecutive += 1
        self._error_counters[unit].inc()
        bundle = getattr(self._analyzers[unit], "evidence", None)
        if bundle is not None:
            bundle.record_fault(
                self.quanta_pushed, f"error:{type(exc).__name__}"
            )
        if state.consecutive >= self.fail_after:
            if state.health is not Health.FAILED:
                _log.error(
                    "analyzer %r FAILED after %d consecutive errors "
                    "(last: %s); quarantined",
                    unit, state.consecutive, exc,
                )
            state.health = Health.FAILED
        else:
            if state.health is Health.OK:
                _log.warning(
                    "analyzer %r raised (%s); health DEGRADED, continuing",
                    unit, exc,
                )
            state.health = worst((state.health, Health.DEGRADED))
        if bundle is not None:
            bundle.record_health(self.quanta_pushed, state.health.value)

    # ------------------------------------------------------------- streaming

    @property
    def _eager(self) -> bool:
        return bool(self.sinks) or self.track_detection_latency

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; closed sessions reject pushes."""
        return self._final_report is not None

    def push_quantum(self, obs: QuantumObservation) -> None:
        """Fold one quantum's observation into every analyzer.

        A raising analyzer is quarantined (health transition), never
        propagated: the session always survives a push. Pushing into a
        closed session raises :class:`DetectionError` — sinks have
        already received their final report, so late observations would
        silently fall out of the record (service lifecycle bugs surface
        loudly instead; see docs/SERVING.md).
        """
        if self._final_report is not None:
            raise DetectionError(
                "session is closed; late observations are rejected "
                f"(quantum {obs.quantum})"
            )
        timed = self.metrics.enabled
        for unit, analyzer in self._analyzers.items():
            state = self._unit_states[unit]
            if state.health is Health.FAILED:
                continue
            with trace_span("analyzer.push", unit=unit, quantum=obs.quantum):
                try:
                    if timed:
                        t0 = perf_counter()
                        analyzer.push(obs)
                        self._push_hists[unit].observe(perf_counter() - t0)
                    else:
                        analyzer.push(obs)
                except Exception as exc:
                    self._record_analyzer_error(unit, exc)
                else:
                    state.consecutive = 0
        self.quanta_pushed += 1
        self._m_quanta.inc()
        if not self._eager:
            return
        with trace_span("session.verdicts", quantum=obs.quantum):
            t0 = perf_counter() if timed else 0.0
            report = self.current_verdicts()
            if timed:
                self._m_verdict.observe(perf_counter() - t0)
        for verdict in report.verdicts:
            # Only a session eager since its first push has a record.
            if (
                verdict.detected
                and verdict.unit not in self._first_detection
                and self._quanta_evaluated + 1 == self.quanta_pushed
            ):
                self._first_detection[verdict.unit] = obs.quantum
                self._first_gauges[verdict.unit].set(obs.quantum)
                _log.info(
                    "first detection of unit %r at quantum %d",
                    verdict.unit,
                    obs.quantum,
                )
            bundle = getattr(
                self._analyzers.get(verdict.unit), "evidence", None
            )
            if bundle is not None:
                bundle.record_verdict(obs.quantum, verdict.detected)
        self._quanta_evaluated += 1
        with trace_span("session.sinks", quantum=obs.quantum):
            t0 = perf_counter() if timed else 0.0
            self._dispatch_sinks("on_quantum", obs.quantum, report)
            if timed:
                self._m_sinks.observe(perf_counter() - t0)

    def _unit_verdict(self, unit: str) -> UnitVerdict:
        """One unit's verdict with combined health; never raises."""
        analyzer = self._analyzers[unit]
        state = self._unit_states[unit]
        try:
            with trace_span("analyzer.verdict", unit=unit):
                verdict = analyzer.verdict()
        except Exception as exc:
            self._record_analyzer_error(unit, exc)
            return UnitVerdict(
                unit=unit,
                method=analyzer.method,
                detected=False,
                quanta_analyzed=0,
                notes=(f"verdict unavailable: {exc}",),
                health=self._unit_states[unit].health.value,
            )
        combined = worst(
            (Health(verdict.health), state.health)
        )
        if combined.value == verdict.health:
            return verdict
        notes = verdict.notes
        if state.health is Health.FAILED:
            notes = notes + (
                f"analyzer quarantined after {state.errors} error(s)",
            )
        elif state.errors:
            notes = notes + (f"{state.errors} absorbed push error(s)",)
        return dataclasses.replace(
            verdict, health=combined.value, notes=notes
        )

    # ------------------------------------------------------------- evidence

    def evidence(self) -> Dict[str, object]:
        """Per-unit :class:`~repro.obs.evidence.EvidenceBundle` mapping.

        Empty unless analyzers were built with ``capture_evidence=True``
        (see :func:`analyzer_for`).
        """
        bundles = {}
        for unit, analyzer in self._analyzers.items():
            bundle = getattr(analyzer, "evidence", None)
            if bundle is not None:
                bundles[unit] = bundle
        return bundles

    @property
    def captures_evidence(self) -> bool:
        return any(
            getattr(a, "evidence", None) is not None
            for a in self._analyzers.values()
        )

    def current_verdicts(self, with_evidence: bool = False) -> DetectionReport:
        """Verdicts as of the quanta pushed so far.

        With ``with_evidence=True`` each verdict carries its unit's
        serialized evidence bundle (when one is being captured); the
        verdict fields themselves are identical either way.
        """
        verdicts = []
        for unit in self._analyzers:
            verdict = self._unit_verdict(unit)
            if with_evidence:
                bundle = getattr(self._analyzers[unit], "evidence", None)
                if bundle is not None:
                    verdict = dataclasses.replace(
                        verdict, evidence=bundle.to_dict()
                    )
            verdicts.append(verdict)
        return DetectionReport(verdicts=tuple(verdicts))

    # ----------------------------------------------------------------- sinks

    def _sink_state(self, sink: VerdictSink) -> _SinkState:
        state = self._sink_states.get(id(sink))
        if state is None:
            state = self._sink_states[id(sink)] = _SinkState()
        return state

    def _dispatch_sinks(self, method: str, *args) -> None:
        """Deliver one event to every sink, each in its own boundary.

        Each sink gets up to ``1 + sink_max_retries`` attempts with
        exponential backoff; a sink whose dispatch is exhausted
        ``sink_fail_limit`` times is quarantined from further
        ``on_quantum`` deliveries (``on_close`` is always attempted).
        One failing sink never blocks delivery to the others.
        """
        for sink in self.sinks:
            state = self._sink_state(sink)
            if state.quarantined and method == "on_quantum":
                continue
            delay = self.sink_backoff_base
            for attempt in range(1 + self.sink_max_retries):
                try:
                    getattr(sink, method)(*args)
                    break
                except Exception as exc:
                    self._m_sink_errors.inc()
                    if attempt < self.sink_max_retries:
                        self._m_sink_retries.inc()
                        _log.warning(
                            "sink %r raised in %s (%s); retrying in %.3fs",
                            type(sink).__name__, method, exc, delay,
                        )
                        self._sleep(delay)
                        delay *= 2
                    else:
                        state.failures += 1
                        _log.error(
                            "sink %r failed %s after %d attempt(s): %s",
                            type(sink).__name__, method, attempt + 1, exc,
                        )
                        if (
                            state.failures >= self.sink_fail_limit
                            and not state.quarantined
                        ):
                            state.quarantined = True
                            _log.error(
                                "sink %r quarantined after %d failed "
                                "dispatches; on_close will still be "
                                "attempted",
                                type(sink).__name__, state.failures,
                            )

    def close(self) -> DetectionReport:
        """Final verdicts; ``on_close`` is attempted for *every* sink.

        When evidence is being captured the final report's verdicts
        carry their serialized bundles, so sinks (and archived reports)
        preserve the full forensic record.

        Close is **idempotent**: the first call computes the final
        report and dispatches ``on_close`` exactly once per sink
        (quarantined sinks included); every later call returns the same
        report object without re-dispatching, so a supervisor and an
        ``finally:`` block can both close the session safely. The final
        report is computed *before* any sink runs — a sink that raises
        during ``on_close`` can therefore never change what the other
        sinks (or the caller) see.
        """
        if self._final_report is not None:
            return self._final_report
        report = self.current_verdicts(with_evidence=self.captures_evidence)
        # Seal the session before dispatching: a sink that re-enters
        # close() (e.g. a panicking supervisor callback) gets the final
        # report back instead of a second on_close fan-out.
        self._final_report = report
        self._dispatch_sinks("on_close", report)
        return report

    def first_detection_quantum(self, unit: str) -> Optional[int]:
        """First quantum at which ``unit``'s verdict fired, or None.

        The answer is the session's own record, kept while it evaluates
        each quantum's verdicts, so only a session that evaluated every
        quantum pushed has one. Any other session raises
        :class:`DetectionError`: what its analyzers retain cannot say when
        a unit first fired.
        """
        self.analyzer_for(unit)
        if self._quanta_evaluated != self.quanta_pushed:
            raise DetectionError(
                f"first detection of {unit!r} is unknown: quanta were pushed "
                "without a verdict; pass track_detection_latency=True or "
                "attach a sink before the first push"
            )
        return self._first_detection.get(unit)


def analyzer_for(
    spec: ChannelSpec,
    accumulator: Optional[MonitorSlot] = None,
    window_fraction: float = 1.0,
    metrics: Optional[MetricsRegistry] = None,
    capture_evidence: bool = False,
) -> Analyzer:
    """The analyzer for one channel, with the paper's detection parameters.

    A burst channel gets a :class:`BurstAnalyzer` folding its counts
    through ``accumulator`` — the auditor slot programmed for the unit —
    or, without one, through a fresh :class:`MonitorSlot`; the conflict
    channel gets an :class:`OscillationAnalyzer` whose observation
    windows tile each quantum at ``window_fraction`` of its width.
    ``capture_evidence`` makes the analyzer keep a bounded forensic
    :class:`~repro.obs.evidence.EvidenceBundle` (docs/FORENSICS.md);
    verdicts are bit-identical with capture on or off.
    """
    if spec.kind is ChannelKind.BURST:
        return BurstAnalyzer(
            spec.name,
            spec.dt,
            accumulator=accumulator,
            metrics=metrics,
            capture_evidence=capture_evidence,
        )
    return OscillationAnalyzer(
        spec.name,
        window_fraction=window_fraction,
        metrics=metrics,
        capture_evidence=capture_evidence,
    )


def build_session_from_specs(
    specs: Iterable[ChannelSpec],
    window_fraction: float = 1.0,
    sinks: Iterable[VerdictSink] = (),
    track_detection_latency: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    capture_evidence: bool = False,
) -> DetectionSession:
    """A session with one :func:`analyzer_for` analyzer per channel spec.

    Trace replay passes its source's ``channels()``; the multi-tenant
    service (:mod:`repro.serve`) passes the channel list of a tenant's
    wire ``hello`` frame. Analyzer construction is the one
    :class:`~repro.core.detector.CCHunter` uses, so a served or replayed
    session's verdicts are bit-identical to a live audit's over the same
    observations.
    """
    session = DetectionSession(
        sinks=sinks,
        track_detection_latency=track_detection_latency,
        metrics=metrics,
    )
    for spec in specs:
        session.add_analyzer(
            analyzer_for(
                spec,
                window_fraction=window_fraction,
                metrics=session.metrics,
                capture_evidence=capture_evidence,
            )
        )
    return session
