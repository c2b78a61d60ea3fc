"""Event sources: where per-quantum observations come from.

An :class:`EventSource` describes the channels it can observe (burst
channels carry per-Δt event counts; a conflict channel carries labeled
cache conflict-miss records) and pushes one :class:`QuantumObservation`
per OS quantum to every subscribed consumer. Any number of
:class:`~repro.pipeline.session.DetectionSession` instances — e.g. one
per audited core pair — can subscribe to the same source.

:class:`MachineEventSource` adapts the simulator: it registers a single
quantum hook on the :class:`~repro.sim.machine.Machine` and reads the
taps at each boundary. ``repro.traces.ArchiveEventSource`` is the second
implementation, replaying recorded archives through the same interface.

The machine source is *columnar* (docs/PERFORMANCE.md): each tap read
goes through an incremental window reader that consumes the tap's
append-only numpy columns once, instead of re-sorting the tap's whole
history at every quantum boundary. Window readers are the taps' only
read path; the ``parity``-marked tests compare every observation
against references kept in the tests (a stable sort of everything a tap
recorded, and the per-window segment kernel).
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.errors import DetectionError
from repro.obs.metrics import MetricsRegistry, get_default
from repro.obs.tracing import trace_span
from repro.util.dtypes import require_int64
from repro.util.runs import WindowCounts


class ChannelKind(enum.Enum):
    """What kind of observation stream a channel carries."""

    #: Per-Δt-window event counts (memory bus locks, divider/multiplier
    #: wait events) feeding burst-pattern analysis.
    BURST = "burst"
    #: Labeled (replacer, victim) conflict-miss records feeding
    #: oscillatory-pattern analysis.
    CONFLICT = "conflict"


@dataclass(frozen=True)
class ChannelSpec:
    """One named observation channel an EventSource produces.

    ``name`` is the unit name verdicts are reported under (e.g.
    ``"membus"``, ``"divider(core 0)"``, ``"cache"``); ``dt`` is the
    Δt window width for burst channels (None for conflict channels).
    """

    name: str
    kind: ChannelKind
    dt: Optional[int] = None


@dataclass(frozen=True)
class ConflictRecords:
    """Conflict-miss records observed during one quantum, in time order."""

    times: np.ndarray
    replacers: np.ndarray
    victims: np.ndarray


@dataclass(frozen=True)
class QuantumObservation:
    """Everything an EventSource saw during one OS quantum.

    ``counts`` maps each burst channel name to its per-Δt-window event
    counts over ``[t0, t1)`` as a :class:`~repro.util.runs.WindowCounts`
    (``len()`` is the window count): runs of equal-valued windows from a
    dense (rate-segment) tap, one entry per window from everything else.
    ``conflicts`` carries the quantum's conflict-miss records when a
    conflict channel is enabled.

    ``faults`` lists known data-quality impairments of this observation
    as ``"kind:channel"`` tags (channel ``*`` = every channel) — e.g. a
    fault-injecting source stamping the perturbations it applied, or a
    real collector flagging counter overflow / ring-buffer overruns.
    Analyzers fold matching tags into their health state
    (:mod:`repro.pipeline.health`) without changing the numerics.
    """

    quantum: int
    t0: int
    t1: int
    counts: Dict[str, WindowCounts] = field(default_factory=dict)
    conflicts: Optional[ConflictRecords] = None
    faults: Tuple[str, ...] = ()

    def faults_for(self, channel: str) -> Tuple[str, ...]:
        """The fault tags that apply to ``channel`` (exact or ``*``)."""
        return tuple(
            tag
            for tag in self.faults
            if tag.endswith(f":{channel}") or tag.endswith(":*")
        )

    def to_json(self) -> str:
        """Strict versioned JSON (``repro.pipeline.observation/v1``)."""
        from repro.pipeline.codec import observation_to_json

        return observation_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "QuantumObservation":
        """Decode :meth:`to_json` output; unknown fields are rejected."""
        from repro.pipeline.codec import observation_from_json

        return observation_from_json(text)


class ObservationConsumer(Protocol):
    """Anything that accepts per-quantum observations."""

    def push_quantum(self, obs: QuantumObservation) -> None: ...


class EventSource(Protocol):
    """A stream of per-quantum observations over named channels."""

    @property
    def quantum_cycles(self) -> int: ...

    def channels(self) -> Tuple[ChannelSpec, ...]: ...

    def subscribe(self, consumer: ObservationConsumer) -> None: ...


class MachineEventSource:
    """Live EventSource reading a simulated machine's taps each quantum.

    One hook on the machine serves every subscriber; channels are
    registered before (or between) runs with :meth:`add_burst_channel` /
    :meth:`enable_conflict_channel`. When an ``auditor`` is attached,
    conflict records are routed through its alternating vector registers
    — the hardware path software actually reads — before being handed to
    consumers.

    Every channel is read through an incremental tap window reader
    (:meth:`~repro.sim.events.EventTap.window_reader`): per quantum this
    touches only the events (or rate segments) of that quantum's window,
    carried zero-copy as numpy columns into the observation.
    """

    def __init__(
        self,
        machine,
        auditor=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._machine_ref = weakref.ref(machine)
        self.auditor = auditor
        self._burst_taps: Dict[str, Tuple[ChannelSpec, object]] = {}
        self._burst_readers: Dict[str, object] = {}
        self._conflict_spec: Optional[ChannelSpec] = None
        self._conflict_reader = None
        self._consumers: List[ObservationConsumer] = []
        self.metrics = metrics if metrics is not None else get_default()
        self._m_observations = self.metrics.counter(
            "cchunter_source_observations_total",
            "quantum observations emitted to subscribed consumers",
        )
        self._m_emit = self.metrics.histogram(
            "cchunter_source_emit_seconds",
            "wall time of one quantum-boundary tap read + fan-out",
        )
        self._m_conflicts = self.metrics.counter(
            "cchunter_source_conflict_records_total",
            "cache conflict-miss records handed to consumers",
        )
        self._channel_counters: Dict[str, object] = {}
        machine.on_quantum_end(self._emit)

    @property
    def machine(self):
        """The audited machine, held weakly: its hook holds this source."""
        return self._machine_ref()

    @property
    def quantum_cycles(self) -> int:
        return self.machine.quantum_cycles

    def channels(self) -> Tuple[ChannelSpec, ...]:
        specs = [spec for spec, _tap in self._burst_taps.values()]
        if self._conflict_spec is not None:
            specs.append(self._conflict_spec)
        return tuple(specs)

    def subscribe(self, consumer: ObservationConsumer) -> None:
        self._consumers.append(consumer)

    def add_burst_channel(self, name: str, tap, dt: int) -> ChannelSpec:
        """Register a density tap (anything with ``window_reader``)."""
        if name in self._burst_taps:
            raise DetectionError(f"channel {name!r} is already registered")
        if dt <= 0:
            raise DetectionError(f"Δt must be positive, got {dt}")
        spec = ChannelSpec(name=name, kind=ChannelKind.BURST, dt=int(dt))
        self._burst_taps[name] = (spec, tap)
        self._burst_readers[name] = tap.window_reader()
        self._channel_counters[name] = self.metrics.counter(
            "cchunter_source_channel_events_total",
            "indicator events observed per channel",
            labels={"channel": name},
        )
        return spec

    def enable_conflict_channel(self, name: str = "cache") -> ChannelSpec:
        """Start emitting cache conflict-miss records each quantum."""
        if self._conflict_spec is not None:
            raise DetectionError("conflict channel is already enabled")
        self._conflict_spec = ChannelSpec(name=name, kind=ChannelKind.CONFLICT)
        self._conflict_reader = self.machine.cache_miss_tap.window_reader()
        return self._conflict_spec

    def _emit(self, quantum: int, t0: int, t1: int) -> None:
        if not self._consumers:
            return
        timed = self.metrics.enabled
        t_start = perf_counter() if timed else 0.0
        with trace_span("source.emit", quantum=quantum):
            readers = self._burst_readers
            counts = {
                name: readers[name].read_counts(spec.dt, t0, t1)
                for name, (spec, _tap) in self._burst_taps.items()
            }
            for name, column in counts.items():
                require_int64(column.values, f"channel {name!r} window counts")
            conflicts = None
            if self._conflict_spec is not None:
                times, reps, vics = self._conflict_reader.read(t0, t1)
                require_int64(times, "conflict record timestamps")
                if self.auditor is not None:
                    self.auditor.vectors.record_batch(reps, vics)
                    reps, vics = self.auditor.vectors.drain()
                conflicts = ConflictRecords(
                    times=times, replacers=reps, victims=vics
                )
                self._m_conflicts.inc(int(times.size))
            obs = QuantumObservation(
                quantum=quantum, t0=t0, t1=t1, counts=counts, conflicts=conflicts
            )
            for consumer in self._consumers:
                consumer.push_quantum(obs)
        if timed:
            self._m_observations.inc()
            for name, counter in self._channel_counters.items():
                counter.inc(counts[name].total())
            self._m_emit.observe(perf_counter() - t_start)
