"""Observability: metrics, span tracing, and structured logging.

The reproduction's self-measurement layer, mirroring the paper's own
emphasis on low-overhead online monitoring:

- ``repro.obs.metrics`` — a dependency-free :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms with JSON snapshots and
  Prometheus text exposition. Always on (counters-only by default);
  pass :data:`NULL_REGISTRY` to a component to switch it off entirely.
- ``repro.obs.tracing`` — opt-in ``trace_span`` spans into a bounded
  ring buffer, exportable as Chrome-trace JSON.
- ``repro.obs.profile`` — an opt-in :class:`StageProfiler` folding the
  same ``trace_span`` intervals into a per-stage wall/CPU call tree
  (self/child accounting, per-quantum rows) with flamegraph and
  speedscope exporters; merged across TrialRunner workers like
  metrics snapshots.
- ``repro.obs.log`` — per-component structured loggers under the
  ``repro`` tree, with plain-text or JSON-lines output.
- ``repro.obs.timeseries`` — a :class:`MetricsSampler` that snapshots a
  registry into a bounded JSONL time series, one sample per call (a
  session's ``TimeseriesSink`` samples once per quantum and at close).
- ``repro.obs.evidence`` — per-unit :class:`EvidenceBundle` forensic
  records behind every verdict (LR trajectories, histogram and
  correlogram snapshots, fault/health/verdict timelines) with exact
  round-trip serialization.
- ``repro.obs.telemetry`` — a stdlib asyncio HTTP admin endpoint
  (:class:`TelemetryServer`) turning the registries above into a live
  scrape surface (``/metrics``, health/readiness, per-tenant state).
- ``repro.obs.slo`` — per-tenant rolling SLO windows with multi-window
  burn-rate alert rules (:class:`SloTracker`), emitting structured
  ``repro.obs.alert/v1`` events, a ``cchunter_alerts_total`` counter,
  and an append-only alerts JSONL.

Metric names, label conventions, the span taxonomy, and the exposition
format are documented in docs/OBSERVABILITY.md; the evidence schema and
time-series format live in docs/FORENSICS.md.
"""

from repro.obs.evidence import (
    EVIDENCE_FORMAT,
    EvidenceBundle,
    EvidenceError,
    evidence_document,
    load_evidence,
    write_evidence,
)
from repro.obs.log import (
    JsonLineFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
    get_default,
    load_snapshot,
    metric_names,
    new_default,
    render_prometheus,
    set_default,
)
from repro.obs.timeseries import (
    TIMESERIES_FORMAT,
    MetricsSampler,
    TimeseriesError,
    flatten_snapshot,
    load_jsonl,
    series_keys,
    series_values,
)
from repro.obs.profile import (
    PROFILE_FORMAT,
    ProfileError,
    StageProfiler,
    StageStats,
    disable_profiling,
    enable_profiling,
    load_profile,
    merge_profiles,
    render_collapsed,
    render_top,
    to_speedscope,
)
from repro.obs.slo import (
    ALERT_FORMAT,
    DEFAULT_OBJECTIVES,
    DEFAULT_RULES,
    BurnRateRule,
    SloObjective,
    SloTracker,
)
from repro.obs.telemetry import TelemetryServer, json_response, text_response
from repro.obs.tracing import (
    SpanRecord,
    SpanRecorder,
    TraceContext,
    disable_tracing,
    enable_tracing,
    get_profiler,
    get_recorder,
    merge_remote_trace,
    new_span_id,
    new_trace_id,
    trace_span,
)

__all__ = [
    "EVIDENCE_FORMAT",
    "EvidenceBundle",
    "EvidenceError",
    "evidence_document",
    "load_evidence",
    "write_evidence",
    "TIMESERIES_FORMAT",
    "MetricsSampler",
    "TimeseriesError",
    "flatten_snapshot",
    "load_jsonl",
    "series_keys",
    "series_values",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "get_default",
    "set_default",
    "new_default",
    "render_prometheus",
    "load_snapshot",
    "metric_names",
    "SpanRecord",
    "SpanRecorder",
    "TraceContext",
    "trace_span",
    "enable_tracing",
    "disable_tracing",
    "get_recorder",
    "get_profiler",
    "merge_remote_trace",
    "new_span_id",
    "new_trace_id",
    "ALERT_FORMAT",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_RULES",
    "BurnRateRule",
    "SloObjective",
    "SloTracker",
    "TelemetryServer",
    "json_response",
    "text_response",
    "PROFILE_FORMAT",
    "ProfileError",
    "StageProfiler",
    "StageStats",
    "enable_profiling",
    "disable_profiling",
    "load_profile",
    "merge_profiles",
    "render_collapsed",
    "render_top",
    "to_speedscope",
    "JsonLineFormatter",
    "configure_logging",
    "get_logger",
]
