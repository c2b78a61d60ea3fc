"""The CC-Hunter facade: attach detectors to a machine and collect verdicts.

Usage::

    machine = Machine()
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.MEMORY_BUS)
    hunter.audit(AuditUnit.DIVIDER, core=0)   # at most two units at a time
    ... spawn processes ...
    machine.run_quanta(16)
    report = hunter.report()

CCHunter is a thin facade over the streaming pipeline: a
:class:`~repro.pipeline.source.MachineEventSource` reads the machine's
taps each OS quantum — density counts flow through the modeled
CC-auditor's monitor slots (saturating accumulators + histogram
buffers), conflict-miss records through its alternating vector
registers — and a :class:`~repro.pipeline.session.DetectionSession`
folds each observation into per-unit incremental analyzers, built by
the same factory (:func:`~repro.pipeline.session.analyzer_for`) that
trace replay and the detection service use. Verdicts
are therefore available *during* the run (``current_verdicts()``,
verdict sinks), not just from the terminal ``report()`` call; the
session can also be driven directly via ``push_quantum()`` by non-sim
sources.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, List, Optional, Tuple

from repro.core.density import default_delta_t
from repro.core.oscillation import OscillationAnalysis
from repro.core.report import DetectionReport
from repro.errors import DetectionError
from repro.hardware.auditor import CCAuditor
from repro.obs.metrics import MetricsRegistry, get_default
from repro.pipeline.analyzers import BurstAnalyzer, OscillationAnalyzer
from repro.pipeline.session import DetectionSession, analyzer_for
from repro.pipeline.sinks import VerdictSink
from repro.pipeline.source import MachineEventSource, QuantumObservation


class AuditUnit(Enum):
    """Hardware units CC-Hunter knows how to audit."""

    MEMORY_BUS = "membus"
    DIVIDER = "divider"
    MULTIPLIER = "multiplier"
    CACHE = "cache"


class CCHunter:
    """Covert-timing-channel detector bound to a simulated machine."""

    def __init__(
        self,
        machine,
        auditor: Optional[CCAuditor] = None,
        window_fraction: float = 1.0,
        sinks: Iterable[VerdictSink] = (),
        track_detection_latency: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        injectors: Iterable = (),
        capture_evidence: bool = False,
    ):
        if not 0 < window_fraction <= 1.0:
            raise DetectionError(
                f"window fraction must be in (0, 1], got {window_fraction}"
            )
        self.machine = machine
        self.auditor = auditor or CCAuditor()
        self.window_fraction = window_fraction
        #: When set, every audited unit keeps a bounded forensic
        #: EvidenceBundle (docs/FORENSICS.md); verdicts are identical
        #: with capture on or off.
        self.capture_evidence = capture_evidence
        self.metrics = metrics if metrics is not None else get_default()
        self.source = MachineEventSource(
            machine, auditor=self.auditor, metrics=self.metrics
        )
        self.session = DetectionSession(
            sinks=sinks,
            track_detection_latency=track_detection_latency,
            metrics=self.metrics,
        )
        # With fault injectors the session listens to a perturbing
        # wrapper instead of the raw machine source (robustness drills;
        # see repro.faults). ``self.source`` stays the machine source —
        # audit() keeps programming channels on it directly.
        injectors = list(injectors)
        feed = self.source
        if injectors:
            from repro.faults.source import FaultInjectingSource

            feed = FaultInjectingSource(
                self.source, injectors, metrics=self.metrics
            )
        self.feed = feed
        self.feed.subscribe(self.session)
        #: (unit, core, channel name) per audit call, for facade lookups.
        self._audits: List[Tuple[AuditUnit, Optional[int], str]] = []

    # ------------------------------------------------------------------ setup

    @property
    def monitors_in_use(self) -> int:
        return len(self._audits)

    def audit(
        self,
        unit: AuditUnit,
        core: Optional[int] = None,
        dt: Optional[int] = None,
    ) -> None:
        """Point a CC-auditor monitor slot at a hardware unit.

        The auditor supports at most two concurrently audited units (the
        paper's hardware tradeoff); a third ``audit`` call raises. The
        divider is per-core, so ``core`` is required for it.
        """
        slot_index = self.auditor.free_slot_index()
        slot = None
        if unit is AuditUnit.CACHE:
            if any(u is AuditUnit.CACHE for u, _c, _n in self._audits):
                raise DetectionError("cache is already being audited")
            core = None
            name = unit.value
            self.auditor.program(
                slot_index, name, self.machine.quantum_cycles
            )
            spec = self.source.enable_conflict_channel(name)
        elif unit is AuditUnit.MEMORY_BUS:
            name = unit.value
            chosen_dt = dt or default_delta_t("membus")
            slot = self.auditor.program(slot_index, name, chosen_dt)
            spec = self.source.add_burst_channel(
                name, self.machine.bus_lock_tap, chosen_dt
            )
        elif unit in (AuditUnit.DIVIDER, AuditUnit.MULTIPLIER):
            if core is None:
                raise DetectionError(f"{unit.value} audit needs a core index")
            name = f"{unit.value}(core {core})"
            tap = (
                self.machine.multiplier_wait_tap_for(core)
                if unit is AuditUnit.MULTIPLIER
                else self.machine.divider_wait_tap_for(core)
            )
            chosen_dt = dt or default_delta_t(unit.value)
            slot = self.auditor.program(
                slot_index, f"{unit.value}{core}", chosen_dt
            )
            spec = self.source.add_burst_channel(name, tap, chosen_dt)
        else:  # pragma: no cover - exhaustive enum
            raise DetectionError(f"unknown audit unit {unit!r}")
        # A burst channel's programmed slot *is* its analyzer's
        # accumulator: counts pass through the hardware's saturating
        # histogram buffer.
        self.session.add_analyzer(
            analyzer_for(
                spec,
                accumulator=slot,
                window_fraction=self.window_fraction,
                metrics=self.metrics,
                capture_evidence=self.capture_evidence,
            )
        )
        self._audits.append((unit, core, name))

    # ------------------------------------------------------------ streaming

    def push_quantum(self, obs: QuantumObservation) -> None:
        """Feed an observation directly (for non-machine sources)."""
        self.session.push_quantum(obs)

    def current_verdicts(self) -> DetectionReport:
        """Verdicts as of the quanta observed so far."""
        return self.session.current_verdicts()

    # --------------------------------------------------------------- verdicts

    def report(self) -> DetectionReport:
        """Run the cross-window analyses and return the final verdicts."""
        return self.session.current_verdicts()

    def evidence(self):
        """Per-unit forensic bundles (empty unless ``capture_evidence``).

        See :meth:`repro.pipeline.session.DetectionSession.evidence`.
        """
        return self.session.evidence()

    # ------------------------------------------------------------- latency

    def _channel_name(self, unit: AuditUnit, core: Optional[int]) -> str:
        for audited_unit, audited_core, name in self._audits:
            if audited_unit is unit and (core is None or audited_core == core):
                return name
        raise DetectionError(f"{unit.value} is not being audited")

    def first_detection_quantum(
        self, unit: AuditUnit, core: Optional[int] = None
    ) -> Optional[int]:
        """Index of the first quantum at which the unit's verdict fires.

        Useful as a time-to-detection metric: how long a channel runs
        before CC-Hunter calls it. The answer is the session's record of
        its per-quantum verdicts
        (:meth:`~repro.pipeline.session.DetectionSession.first_detection_quantum`):
        None if the unit never fired, and a :class:`DetectionError` unless
        the hunter was built with ``track_detection_latency=True`` or with
        sinks, so that it evaluated a verdict at every quantum.
        """
        return self.session.first_detection_quantum(
            self._channel_name(unit, core)
        )

    # ------------------------------------------------------------- inspection

    def burst_histograms(self, unit: AuditUnit, core: Optional[int] = None):
        """Per-quantum histograms recorded for a burst-audited unit."""
        analyzer = self.session.analyzer_for(self._channel_name(unit, core))
        if not isinstance(analyzer, BurstAnalyzer):
            raise DetectionError(f"{unit.value} is not burst-audited")
        return list(analyzer.histograms)

    def cache_analyses(self) -> List[OscillationAnalysis]:
        """The cache monitor's most recent per-window oscillation analyses.

        At most :data:`~repro.pipeline.analyzers.RECENT_ANALYSES`
        windows, oldest first; the verdict covers every window.
        """
        analyzer = self.session.analyzer_for(AuditUnit.CACHE.value)
        assert isinstance(analyzer, OscillationAnalyzer)
        return list(analyzer.analyses)
