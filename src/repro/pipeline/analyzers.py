"""Per-unit analyzer stages: incremental detection state per channel.

Each analyzer consumes :class:`~repro.pipeline.source.QuantumObservation`
pushes for one named unit and keeps only bounded incremental state:

- :class:`BurstAnalyzer` folds per-Δt counts through the CC-auditor's
  saturating histogram buffer (a
  :class:`~repro.hardware.auditor.MonitorSlot`) into a
  :class:`~repro.core.clustering.PatternHorizon` of the last
  ``CLUSTERING_WINDOW_QUANTA`` per-quantum histograms — exactly the
  horizon recurrence clustering looks at, grouped by discretized pattern.
  A verdict clusters patterns, not windows; with at most four patterns
  it runs no k-means and re-analyzes only the patterns changed since the
  last verdict.
- :class:`OscillationAnalyzer` computes one correlogram per observation
  window: it groups the window's cross-context conflict records once,
  picks the dominant pair and autocorrelates that pair's 0/1 train alone
  (:func:`~repro.core.autocorr.binary_autocorrelogram`, exact in
  O(max_lag · n)). Its verdict reads running tallies of the analyzed
  windows; only the last ``RECENT_ANALYSES`` window analyses are kept
  for inspection.

``verdict()`` may be called after any quantum; analyzers never replay
history to answer it.

Analyzers are hardened against imperfect input: a well-typed
observation never makes ``push`` raise. A missing channel entry is
recorded as an *observation gap* (the quantum is counted but nothing is
folded in), and fault tags stamped by an upstream
:class:`~repro.faults.FaultInjectingSource` are tallied; either moves
the analyzer's :class:`~repro.pipeline.health.Health` to ``DEGRADED``
(sticky) and annotates the verdict. Unexpected *errors* are the
session's job: :class:`~repro.pipeline.session.DetectionSession`
quarantines analyzers that raise anyway (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Dict, Optional, Protocol, Tuple

import numpy as np

from repro.config import (
    CLUSTERING_WINDOW_QUANTA,
    LIKELIHOOD_RATIO_THRESHOLD,
    AuditorConfig,
)
from repro.core.autocorr import binary_autocorrelogram
from repro.core.burst import analyze_histogram
from repro.core.clustering import PatternHorizon
from repro.core.event_train import dominant_pair_series
from repro.core.oscillation import OscillationAnalysis, analyze_autocorrelogram
from repro.core.report import UnitVerdict
from repro.errors import DetectionError
from repro.hardware.auditor import MonitorSlot
from repro.obs.evidence import EvidenceBundle
from repro.obs.metrics import MetricsRegistry, get_default
from repro.obs.tracing import trace_span
from repro.pipeline.health import Health
from repro.pipeline.source import ConflictRecords, QuantumObservation


class Analyzer(Protocol):
    """One detection stage bound to one named unit."""

    unit: str
    method: str

    def push(self, obs: QuantumObservation) -> None: ...

    def verdict(self) -> UnitVerdict: ...


class _HealthMixin:
    """Shared gap/fault bookkeeping behind each analyzer's health state."""

    unit: str
    #: Forensic capture target; None when evidence capture is off.
    evidence: Optional[EvidenceBundle] = None

    def _init_health(self, metrics: MetricsRegistry) -> None:
        self._health = Health.OK
        #: Quanta counted but not analyzed (channel entry missing).
        self.gaps = 0
        #: Input fault tags seen on observations (stamped upstream).
        self.faults_seen = 0
        #: Tally per fault kind (the ``kind`` of ``kind:channel`` tags),
        #: so verdict notes can say *what* impaired the evidence — e.g.
        #: service load-shedding (``shed``) vs transport loss (``lost``).
        self.fault_kinds: Dict[str, int] = {}
        labels = {"unit": self.unit}
        self._m_gaps = metrics.counter(
            "cchunter_analyzer_gaps_total",
            "observations skipped because the channel entry was missing",
            labels,
        )
        self._m_flagged = metrics.counter(
            "cchunter_analyzer_flagged_faults_total",
            "input fault tags observed on this unit's observations",
            labels,
        )

    @property
    def health(self) -> Health:
        return self._health

    def _note_faults(self, obs: QuantumObservation) -> None:
        tags = obs.faults_for(self.unit)
        if tags:
            self.faults_seen += len(tags)
            for tag in tags:
                kind = tag.split(":", 1)[0]
                self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + 1
            self._m_flagged.inc(len(tags))
            self._health = Health.DEGRADED
            if self.evidence is not None:
                for tag in tags:
                    self.evidence.record_fault(obs.quantum, tag)
                self.evidence.record_health(obs.quantum, self._health.value)

    def _note_gap(self, quantum: int = 0) -> None:
        self.gaps += 1
        self._m_gaps.inc()
        self._health = Health.DEGRADED
        if self.evidence is not None:
            self.evidence.record_fault(quantum, "gap")
            self.evidence.record_health(quantum, self._health.value)

    def _health_notes(self) -> Tuple[str, ...]:
        notes = []
        if self.gaps:
            notes.append(f"{self.gaps} observation gap(s)")
        if self.faults_seen:
            kinds = ", ".join(
                f"{kind} x{count}"
                for kind, count in sorted(self.fault_kinds.items())
            )
            notes.append(
                f"{self.faults_seen} flagged input fault(s) ({kinds})"
            )
        return tuple(notes)


class BurstAnalyzer(_HealthMixin):
    """Recurrent-burst detection for one combinational unit (IV-B).

    ``accumulator`` is the auditor slot programmed for this unit; without
    one the analyzer folds through a slot of its own with the default
    :class:`~repro.config.AuditorConfig`, so counts always pass the
    hardware's saturating histogram buffer. Per-quantum work is
    O(runs + bins), where a dense channel's quantum is a few thousand
    runs of equal-valued windows and a sparse one's is one run per
    window; history is the bounded pattern horizon recurrence
    clustering consumes.
    """

    method = "burst"

    def __init__(
        self,
        unit: str,
        dt: int,
        accumulator: Optional[MonitorSlot] = None,
        metrics: Optional[MetricsRegistry] = None,
        capture_evidence: bool = False,
    ):
        self.unit = unit
        self.dt = int(dt)
        self._acc = (
            accumulator
            if accumulator is not None
            else MonitorSlot(unit, self.dt, AuditorConfig())
        )
        self._horizon = PatternHorizon(CLUSTERING_WINDOW_QUANTA)
        self.quanta_seen = 0
        m = metrics if metrics is not None else get_default()
        labels = {"unit": unit}
        self._m_windows = m.counter(
            "cchunter_analyzer_windows_total",
            "Δt windows folded into burst histograms",
            labels,
        )
        self._m_events = m.counter(
            "cchunter_analyzer_events_total",
            "indicator events folded into burst histograms",
            labels,
        )
        self._m_clamps = m.counter(
            "cchunter_analyzer_clamp_events_total",
            "Δt windows clamped by the saturating accumulator",
            labels,
        )
        self._m_saturations = m.counter(
            "cchunter_analyzer_entry_saturation_total",
            "histogram entries saturated at the 16-bit entry maximum",
            labels,
        )
        self._seen_events = 0
        self._seen_clamps = 0
        self._seen_saturations = 0
        self.evidence = (
            EvidenceBundle(unit, self.method, metrics=m)
            if capture_evidence else None
        )
        self._prev_lr = 0.0
        self._init_health(m)

    def push(self, obs: QuantumObservation) -> None:
        self._note_faults(obs)
        counts = obs.counts.get(self.unit)
        if counts is None:
            # Observation gap: the channel's readout went missing this
            # quantum. Count the quantum, degrade, and keep going — a
            # lossy collector must not kill the audit.
            self._note_gap(obs.quantum)
            self.quanta_seen += 1
            return
        self._acc.ingest_window_counts(counts)
        hist = self._horizon.push(self._acc.read_and_reset())
        if self.evidence is not None:
            # Capture only reads the window's histogram and its analysis,
            # which nothing else needs — it can never perturb the verdict
            # numerics (bit-identical on/off). The span lives inside the
            # guard, so it costs nothing when evidence capture is off.
            with trace_span(
                "analyzer.evidence", unit=self.unit, quantum=obs.quantum
            ):
                analysis = analyze_histogram(hist)
                lr = analysis.likelihood_ratio
                self.evidence.record_lr(obs.quantum, lr)
                above = lr >= LIKELIHOOD_RATIO_THRESHOLD
                if above != (self._prev_lr >= LIKELIHOOD_RATIO_THRESHOLD):
                    direction = "rise" if above else "fall"
                    self.evidence.record_histogram(
                        obs.quantum, f"lr-threshold-{direction}", hist,
                        analysis,
                    )
                self._prev_lr = lr
        self.quanta_seen += 1
        self._m_windows.inc(len(counts))
        # The slot keeps cumulative event/clamp/saturation tallies; export
        # per-push deltas rather than re-reducing the counts.
        events = self._acc.events_seen
        if events != self._seen_events:
            self._m_events.inc(events - self._seen_events)
            self._seen_events = events
        clamps = self._acc.clamp_events
        saturations = self._acc.entry_saturations
        if clamps != self._seen_clamps:
            self._m_clamps.inc(clamps - self._seen_clamps)
            self._seen_clamps = clamps
        if saturations != self._seen_saturations:
            self._m_saturations.inc(saturations - self._seen_saturations)
            self._seen_saturations = saturations

    def verdict(self) -> UnitVerdict:
        if not self._horizon:
            return UnitVerdict(
                unit=self.unit,
                method="burst",
                detected=False,
                quanta_analyzed=self.quanta_seen,
                notes=("no quanta observed",) if not self.quanta_seen
                else self._health_notes(),
                health=self._health.value,
            )
        recurrence = self._horizon.analyze()
        if self.evidence is not None:
            with trace_span(
                "analyzer.evidence",
                unit=self.unit,
                quantum=self.quanta_seen - 1,
            ):
                self.evidence.set_cluster(
                    self.quanta_seen - 1,
                    recurrence,
                    self._horizon.total,
                )
        return UnitVerdict(
            unit=self.unit,
            method="burst",
            detected=recurrence.recurrent,
            quanta_analyzed=self.quanta_seen,
            max_likelihood_ratio=recurrence.max_likelihood_ratio,
            recurrent=recurrence.recurrent,
            burst_window_fraction=recurrence.burst_window_fraction,
            notes=self._health_notes(),
            health=self._health.value,
        )

    @property
    def histograms(self) -> Deque[np.ndarray]:
        """The retained per-quantum histograms, oldest first.

        Read-only: equal histograms of one pattern share an array.
        """
        return self._horizon.histograms


#: Window analyses an :class:`OscillationAnalyzer` keeps for inspection
#: (:meth:`~repro.core.detector.CCHunter.cache_analyses`). Verdicts read
#: the analyzer's running tallies, never these.
RECENT_ANALYSES = 64

#: A window's correlogram spans lags 0 .. ``MAX_LAG``, once its dominant
#: pair's train holds ``MIN_TRAIN_EVENTS`` events.
MAX_LAG = 1000
MIN_TRAIN_EVENTS = 64

#: The records of a quantum without a conflict channel.
_NO_CONFLICTS = ConflictRecords(
    times=np.zeros(0, dtype=np.int64),
    replacers=np.zeros(0, dtype=np.int64),
    victims=np.zeros(0, dtype=np.int64),
)


class OscillationAnalyzer(_HealthMixin):
    """Oscillatory-pattern detection for the shared cache (IV-D).

    Observation windows tile each quantum at ``window_fraction`` of its
    width. Closing a window autocorrelates its dominant cross-context
    pair's identifier train, once, over lags 0 .. ``MAX_LAG``; the other
    pairs' records are only counted. A closed window updates running
    tallies (significant windows, max peak, one period per significant
    window), so state stays a few bytes per window however long the
    audit runs. The verdict fires from the first significant window on;
    the session records at which quantum.
    """

    method = "oscillation"

    def __init__(
        self,
        unit: str = "cache",
        window_fraction: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        capture_evidence: bool = False,
    ):
        if not 0 < window_fraction <= 1.0:
            raise DetectionError(
                f"window fraction must be in (0, 1], got {window_fraction}"
            )
        self.unit = unit
        self.window_fraction = window_fraction
        #: The last ``RECENT_ANALYSES`` window analyses, oldest first.
        self.analyses: Deque[OscillationAnalysis] = deque(
            maxlen=RECENT_ANALYSES
        )
        self.windows_analyzed = 0
        self.significant_windows = 0
        self._max_peak: Optional[float] = None
        #: Dominant period of each significant window that has one.
        self._periods = array("d")
        self.last_acf: Optional[np.ndarray] = None
        m = metrics if metrics is not None else get_default()
        labels = {"unit": unit}
        self._m_windows = m.counter(
            "cchunter_analyzer_windows_total",
            "observation windows closed by the oscillation analyzer",
            labels,
        )
        self._m_windows_skipped = m.counter(
            "cchunter_analyzer_windows_skipped_total",
            "windows closed without an autocorrelogram (too few train events)",
            labels,
        )
        self._m_windows_significant = m.counter(
            "cchunter_analyzer_windows_significant_total",
            "windows whose autocorrelogram showed significant oscillation",
            labels,
        )
        self._m_train_events = m.counter(
            "cchunter_analyzer_train_events_total",
            "cross-context conflict events in closed windows",
            labels,
        )
        self._m_train_length = m.gauge(
            "cchunter_analyzer_last_train_length",
            "length of the last analyzed dominant-pair train",
            labels,
        )
        self._m_acf_lags = m.gauge(
            "cchunter_analyzer_last_acf_lags",
            "lag-window width of the last computed autocorrelogram",
            labels,
        )
        self.evidence = (
            EvidenceBundle(unit, self.method, metrics=m)
            if capture_evidence else None
        )
        self._init_health(m)

    def push(self, obs: QuantumObservation) -> None:
        self._note_faults(obs)
        recs = obs.conflicts
        if recs is None:
            recs = _NO_CONFLICTS
        width = max(1, int(round((obs.t1 - obs.t0) * self.window_fraction)))
        start = obs.t0
        while start < obs.t1:
            end = min(start + width, obs.t1)
            lo = np.searchsorted(recs.times, start, side="left")
            hi = np.searchsorted(recs.times, end, side="left")
            self._close_window(
                obs.quantum, recs.replacers[lo:hi], recs.victims[lo:hi]
            )
            start = end

    def _close_window(
        self, quantum: int, replacers: np.ndarray, victims: np.ndarray
    ) -> None:
        self.windows_analyzed += 1
        self._m_windows.inc()
        # Covert cache communication is a ping-pong between ONE pair of
        # contexts; analyze the dominant pair's labeled train (ties break
        # toward the smallest packed pair id).
        labels, _idx, _pair = dominant_pair_series(replacers, victims)
        self._m_train_events.inc(int(np.count_nonzero(replacers != victims)))
        ones = int(labels.sum())
        both_directions = (
            labels.size >= MIN_TRAIN_EVENTS
            and 4 <= ones <= labels.size - 4
        )
        if not both_directions:
            self._m_windows_skipped.inc()
            return
        acf = binary_autocorrelogram(labels, MAX_LAG)
        self.last_acf = acf
        analysis = analyze_autocorrelogram(acf)
        self.analyses.append(analysis)
        peak = analysis.max_peak
        if self._max_peak is None or peak > self._max_peak:
            self._max_peak = peak
        self._m_train_length.set(labels.size)
        self._m_acf_lags.set(acf.size)
        if self.evidence is not None:
            # Read-only capture of already-computed values; never
            # perturbs the verdict numerics.
            with trace_span(
                "analyzer.evidence", unit=self.unit, quantum=quantum
            ):
                self.evidence.record_peak(quantum, analysis.max_peak)
                self.evidence.record_acf_window(quantum, analysis)
                self.evidence.record_acf(quantum, acf, analysis)
        if analysis.significant:
            self._m_windows_significant.inc()
            self.significant_windows += 1
            if analysis.dominant_period:
                self._periods.append(analysis.dominant_period)

    def verdict(self) -> UnitVerdict:
        periods = self._periods
        return UnitVerdict(
            unit=self.unit,
            method="oscillation",
            detected=self.significant_windows >= 1,
            quanta_analyzed=self.windows_analyzed,
            oscillating_windows=self.significant_windows,
            max_peak=0.0 if self._max_peak is None else self._max_peak,
            dominant_period=float(np.median(periods)) if periods else None,
            notes=self._health_notes(),
            health=self._health.value,
        )
