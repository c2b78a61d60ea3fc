"""Streaming detection pipeline: sources → analyzers → session → sinks.

CC-Hunter's hardware is inherently streaming — countdown Δt registers,
saturating accumulators, and alternating vector registers emit one
observation per OS quantum. This package gives the software stack the
same shape:

- an :class:`EventSource` produces one :class:`QuantumObservation` per
  quantum (the simulator's taps are one source, replayed trace archives
  another — see :class:`repro.traces.ArchiveEventSource`);
- per-unit :class:`Analyzer` stages, all built by :func:`analyzer_for`,
  fold each observation into bounded incremental state (the auditor's
  density histogram buffers, running-sums autocorrelograms);
- a :class:`DetectionSession` fans observations out to its analyzers and
  can render :class:`~repro.core.report.DetectionReport` verdicts at any
  quantum, not just at the end of a run;
- :class:`VerdictSink` consumers receive per-quantum verdict updates
  (collecting, printing, JSON-lines, callbacks).

:class:`~repro.core.detector.CCHunter` is a thin facade over one
``MachineEventSource`` + ``DetectionSession`` pair; ``analyze_traces``
replays an archive through an identical session, so live and offline
detection share a single code path.
"""

from repro.pipeline.analyzers import Analyzer, BurstAnalyzer, OscillationAnalyzer
from repro.pipeline.codec import (
    CodecError,
    channel_spec_from_dict,
    channel_spec_to_dict,
    observation_from_dict,
    observation_to_dict,
    verdict_from_dict,
    verdict_to_dict,
)
from repro.pipeline.health import Health, worst
from repro.pipeline.session import (
    DetectionSession,
    analyzer_for,
    build_session_from_specs,
)
from repro.pipeline.sinks import (
    CallbackSink,
    CollectingSink,
    MetricsSink,
    StreamPrinterSink,
    TimeseriesSink,
    VerdictSink,
)
from repro.pipeline.source import (
    ChannelKind,
    ChannelSpec,
    ConflictRecords,
    EventSource,
    MachineEventSource,
    ObservationConsumer,
    QuantumObservation,
    WindowCounts,
)

__all__ = [
    "Analyzer",
    "BurstAnalyzer",
    "OscillationAnalyzer",
    "Health",
    "worst",
    "DetectionSession",
    "analyzer_for",
    "build_session_from_specs",
    "CodecError",
    "observation_to_dict",
    "observation_from_dict",
    "verdict_to_dict",
    "verdict_from_dict",
    "channel_spec_to_dict",
    "channel_spec_from_dict",
    "VerdictSink",
    "CollectingSink",
    "MetricsSink",
    "StreamPrinterSink",
    "TimeseriesSink",
    "CallbackSink",
    "ChannelKind",
    "ChannelSpec",
    "ConflictRecords",
    "EventSource",
    "MachineEventSource",
    "ObservationConsumer",
    "QuantumObservation",
    "WindowCounts",
]
