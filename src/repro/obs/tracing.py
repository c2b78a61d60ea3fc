"""Lightweight span tracing with a ring-buffer recorder.

Where the metrics registry answers *how much* (counters, latency
distributions), spans answer *where the time went* on a concrete run:
each ``with trace_span("analyzer.push", unit="membus"):`` block records
one timed interval into a bounded ring buffer, exportable as plain JSON
or as a Chrome-trace (``chrome://tracing`` / Perfetto) document.

Tracing is **opt-in** and off by default. When disabled, ``trace_span``
returns a shared no-op context manager without reading the clock, so
leaving the ``with`` blocks in hot paths costs one global read and one
function call per span — measured in ``benchmarks/bench_obs_overhead.py``.

The same span intervals can additionally (or instead) feed a
:class:`repro.obs.profile.StageProfiler` installed via
:func:`set_profiler`: the live span hands its *single* pair of
``perf_counter`` reads to both the recorder and the profiler, so a
stage is never timed twice and the two artifacts can never disagree
about a duration.

Span taxonomy (see docs/OBSERVABILITY.md): dotted lowercase names,
``component.operation`` — ``sim.quantum``, ``source.emit``,
``analyzer.push``, ``session.verdicts``, ``analyzer.verdict``,
``session.sinks``, ``replay.run``. Attributes are small scalars (unit names, quantum
indices), never bulk data.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Union


class SpanRecord(NamedTuple):
    """One completed span: name, start (s, recorder-relative), duration."""

    name: str
    start: float
    duration: float
    attrs: Dict[str, Any]


class TraceContext(NamedTuple):
    """Cross-process trace correlation carried on serve wire frames.

    ``trace_id`` names one logical client→server flow; ``parent_span``
    is the sender-side span id the receiver's spans hang under. Both
    are opaque hex strings — see :func:`new_trace_id` /
    :func:`new_span_id` — serialized by
    ``repro.pipeline.codec.trace_context_to_dict``.
    """

    trace_id: str
    parent_span: str = ""


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (one per client connection)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 8-hex-char span id (one per parented span)."""
    return uuid.uuid4().hex[:8]


class SpanRecorder:
    """Bounded in-memory store of completed spans (newest kept)."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"span capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.origin = perf_counter()
        # Stamped at construction so traces merged across TrialRunner
        # workers land on distinct Chrome/Perfetto rows instead of all
        # collapsing onto pid 0 / tid 0.
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._spans: Deque[SpanRecord] = deque(maxlen=capacity)
        self.spans_recorded = 0
        self.spans_dropped = 0

    def record(
        self, name: str, start: float, duration: float, attrs: Dict[str, Any]
    ) -> None:
        if len(self._spans) == self.capacity:
            self.spans_dropped += 1
        self._spans.append(
            SpanRecord(name, start - self.origin, duration, attrs)
        )
        self.spans_recorded += 1

    def spans(self) -> List[SpanRecord]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    # ------------------------------------------------------------- export

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Spans as plain dicts (JSON lines, tests, notebooks)."""
        return [
            {
                "name": s.name,
                "start_s": s.start,
                "duration_s": s.duration,
                "attrs": s.attrs,
            }
            for s in self._spans
        ]

    def to_chrome_trace(self) -> Dict[str, Any]:
        """A Chrome-trace document (load in chrome://tracing or Perfetto)."""
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": self.pid,
                "tid": self.tid,
                "args": s.attrs,
            }
            for s in self._spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)
            handle.write("\n")


class _Span:
    """A live span: times its ``with`` block into recorder/profiler.

    One ``perf_counter`` read on entry and one on exit feed *both*
    consumers — the ring-buffer recorder and the stage profiler — so
    enabling both never times an interval twice.
    """

    __slots__ = ("_recorder", "_profiler", "name", "attrs", "_t0")

    def __init__(
        self,
        recorder: Optional[SpanRecorder],
        profiler: Optional[Any],
        name: str,
        attrs: Dict[str, Any],
    ):
        self._recorder = recorder
        self._profiler = profiler
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        if self._profiler is not None:
            self._profiler.begin(self.name, self.attrs, self._t0)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter()
        if self._recorder is not None:
            self._recorder.record(
                self.name, self._t0, t1 - self._t0, self.attrs
            )
        if self._profiler is not None:
            self._profiler.end(t1)
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


def merge_remote_trace(
    *sources: Union[SpanRecorder, Dict[str, Any]],
    trace_id: Optional[str] = None,
    names: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Join client- and server-side span buffers into one Chrome trace.

    Each source is a :class:`SpanRecorder` or an already-exported
    Chrome-trace dict. Sources are assigned distinct ``pid`` rows
    (labelled via ``process_name`` metadata events, default
    ``source-<i>`` or the given ``names``) so a client and a server
    that happen to share an OS pid — every serve test — still land on
    separate tracks. With ``trace_id`` given, only spans whose
    ``args["trace_id"]`` matches are kept, which is how one tenant's
    flow is isolated from a busy service's buffer.

    Timestamps stay source-relative (each recorder's own origin);
    merged traces answer "where did the latency go per side", not
    "what was the wire clock skew" — the wire gap is visible as the
    delta between a client ``wire`` span and the matching server
    ``queue_wait`` span for the same quantum.
    """
    events: List[Dict[str, Any]] = []
    for index, source in enumerate(sources):
        label = (
            names[index]
            if names is not None and index < len(names)
            else f"source-{index}"
        )
        doc = (
            source.to_chrome_trace()
            if isinstance(source, SpanRecorder)
            else source
        )
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": index,
                "args": {"name": label},
            }
        )
        for event in doc.get("traceEvents", []):
            if event.get("ph") == "M":
                continue
            args = event.get("args") or {}
            if trace_id is not None and args.get("trace_id") != trace_id:
                continue
            merged = dict(event)
            merged["pid"] = index
            events.append(merged)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_NOOP_SPAN = _NoopSpan()
_recorder: Optional[SpanRecorder] = None
# The active StageProfiler (repro.obs.profile), if any. Typed as Any to
# keep this module free of an import cycle with repro.obs.profile.
_profiler: Optional[Any] = None


def enable_tracing(capacity: int = 4096) -> SpanRecorder:
    """Start recording spans into a fresh ring buffer; returns it."""
    global _recorder
    _recorder = SpanRecorder(capacity)
    return _recorder


def disable_tracing() -> None:
    """Stop recording; subsequent ``trace_span`` calls are no-ops."""
    global _recorder
    _recorder = None


def tracing_enabled() -> bool:
    return _recorder is not None


def get_recorder() -> Optional[SpanRecorder]:
    """The active recorder, or None when tracing is disabled."""
    return _recorder


def set_profiler(profiler: Optional[Any]) -> None:
    """Install (or, with None, remove) the active span profiler.

    Prefer :func:`repro.obs.profile.enable_profiling`, which constructs
    the profiler too; this is the low-level hook it rests on.
    """
    global _profiler
    _profiler = profiler


def get_profiler() -> Optional[Any]:
    """The active span profiler, or None when profiling is disabled."""
    return _profiler


def trace_span(name: str, **attrs: Any):
    """Context manager timing one operation.

    No-op unless span tracing and/or stage profiling is enabled; when
    either is, the returned span feeds whichever consumers are active
    from one shared pair of clock reads.
    """
    recorder = _recorder
    profiler = _profiler
    if recorder is None and profiler is None:
        return _NOOP_SPAN
    return _Span(recorder, profiler, name, attrs)
