"""Tests for the span recorder and trace_span context manager."""

import json

import pytest

from repro.obs.tracing import (
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    get_recorder,
    trace_span,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


class TestTraceSpan:
    def test_disabled_returns_shared_noop(self):
        assert get_recorder() is None
        span_a = trace_span("analyzer.push", unit="membus")
        span_b = trace_span("sim.quantum")
        assert span_a is span_b  # shared no-op singleton
        with span_a:
            pass  # records nothing, raises nothing

    def test_enabled_records_name_duration_attrs(self):
        recorder = enable_tracing()
        assert get_recorder() is recorder
        with trace_span("analyzer.push", unit="membus", quantum=3):
            pass
        (span,) = recorder.spans()
        assert span.name == "analyzer.push"
        assert span.attrs == {"unit": "membus", "quantum": 3}
        assert span.duration >= 0.0
        assert span.start >= 0.0  # relative to recorder origin

    def test_span_recorded_even_when_body_raises(self):
        recorder = enable_tracing()
        with pytest.raises(ValueError):
            with trace_span("session.verdicts"):
                raise ValueError("boom")
        assert [s.name for s in recorder.spans()] == ["session.verdicts"]

    def test_disable_stops_recording(self):
        recorder = enable_tracing()
        with trace_span("a"):
            pass
        disable_tracing()
        with trace_span("b"):
            pass
        assert [s.name for s in recorder.spans()] == ["a"]


class TestSpanRecorder:
    def test_ring_buffer_keeps_newest(self):
        recorder = SpanRecorder(capacity=2)
        for i in range(5):
            recorder.record(f"s{i}", 0.0, 0.0, {})
        assert [s.name for s in recorder.spans()] == ["s3", "s4"]
        assert recorder.spans_recorded == 5
        assert recorder.spans_dropped == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_to_dicts(self):
        recorder = SpanRecorder()
        recorder.record("source.emit", recorder.origin + 1.0, 0.5, {"q": 1})
        (d,) = recorder.to_dicts()
        assert d == {
            "name": "source.emit",
            "start_s": pytest.approx(1.0),
            "duration_s": 0.5,
            "attrs": {"q": 1},
        }

    def test_chrome_trace_export(self, tmp_path):
        recorder = SpanRecorder()
        recorder.record("sim.quantum", recorder.origin, 0.002, {"quantum": 0})
        path = tmp_path / "trace.json"
        recorder.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "sim.quantum"
        assert event["dur"] == pytest.approx(2000.0)  # microseconds
        assert event["args"] == {"quantum": 0}

    def test_chrome_trace_events_carry_real_pid_tid(self):
        import os
        import threading

        recorder = SpanRecorder()
        recorder.record("sim.quantum", recorder.origin, 0.001, {})
        (event,) = recorder.to_chrome_trace()["traceEvents"]
        # Events from different worker processes must land on distinct
        # Chrome/Perfetto rows when their traces are merged, so the
        # recorder stamps the real ids, not the old hardcoded 0/0.
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()

    def test_clear(self):
        recorder = SpanRecorder()
        recorder.record("a", 0.0, 0.0, {})
        recorder.clear()
        assert recorder.spans() == []


class TestRingWraparound:
    """The ring under sustained pressure: multiple full wraps."""

    def test_multiple_wraps_keep_exactly_newest_window(self):
        recorder = SpanRecorder(capacity=4)
        for i in range(11):  # wraps the 4-slot ring twice and change
            recorder.record(f"s{i}", float(i), 0.1, {"i": i})
        names = [s.name for s in recorder.spans()]
        assert names == ["s7", "s8", "s9", "s10"]
        assert recorder.spans_recorded == 11
        assert recorder.spans_dropped == 7
        # Order inside the window stays chronological after wrapping.
        assert [s.attrs["i"] for s in recorder.spans()] == [7, 8, 9, 10]

    def test_exact_capacity_boundary_drops_nothing(self):
        recorder = SpanRecorder(capacity=3)
        for i in range(3):
            recorder.record(f"s{i}", float(i), 0.0, {})
        assert recorder.spans_dropped == 0
        recorder.record("s3", 3.0, 0.0, {})
        assert recorder.spans_dropped == 1
        assert [s.name for s in recorder.spans()] == ["s1", "s2", "s3"]

    def test_chrome_trace_export_of_wrapped_buffer(self, tmp_path):
        recorder = SpanRecorder(capacity=2)
        for i in range(5):
            recorder.record(
                f"span{i}", recorder.origin + i, 0.25, {"i": i}
            )
        path = tmp_path / "wrapped.json"
        recorder.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        # Only the retained window is exported — no ghost events from
        # evicted spans, and timestamps stay monotonic.
        assert [e["name"] for e in events] == ["span3", "span4"]
        assert [e["args"]["i"] for e in events] == [3, 4]
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert all(e["dur"] == pytest.approx(250000.0) for e in events)

    def test_wrapped_to_dicts_matches_spans(self):
        recorder = SpanRecorder(capacity=2)
        for i in range(4):
            recorder.record(f"s{i}", recorder.origin + i, 0.1, {})
        dicts = recorder.to_dicts()
        assert [d["name"] for d in dicts] == ["s2", "s3"]
        assert [d["start_s"] for d in dicts] == [
            pytest.approx(2.0), pytest.approx(3.0),
        ]


class TestTraceContext:
    def test_ids_are_fresh_and_sized(self):
        from repro.obs.tracing import new_span_id, new_trace_id

        trace_ids = {new_trace_id() for _ in range(16)}
        span_ids = {new_span_id() for _ in range(16)}
        assert len(trace_ids) == 16 and len(span_ids) == 16
        assert all(len(t) == 16 for t in trace_ids)
        assert all(len(s) == 8 for s in span_ids)

    def test_context_defaults(self):
        from repro.obs.tracing import TraceContext

        ctx = TraceContext("abc123")
        assert ctx.trace_id == "abc123" and ctx.parent_span == ""


class TestMergeRemoteTrace:
    def build_recorder(self, names, trace_id=None):
        recorder = SpanRecorder(capacity=16)
        for i, name in enumerate(names):
            attrs = {"i": i}
            if trace_id is not None:
                attrs["trace_id"] = trace_id
            recorder.record(name, recorder.origin + i, 0.5, attrs)
        return recorder

    def test_sources_get_distinct_pids_and_labels(self):
        from repro.obs.tracing import merge_remote_trace

        client = self.build_recorder(["client.emit", "client.wire"])
        server = self.build_recorder(["serve.fold"])
        doc = merge_remote_trace(
            client, server, names=("client", "server")
        )
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert [(m["pid"], m["args"]["name"]) for m in meta] == [
            (0, "client"), (1, "server"),
        ]
        spans = [e for e in events if e["ph"] == "X"]
        by_pid = {e["name"]: e["pid"] for e in spans}
        assert by_pid == {
            "client.emit": 0, "client.wire": 0, "serve.fold": 1,
        }

    def test_trace_id_filter_keeps_one_conversation(self):
        from repro.obs.tracing import merge_remote_trace

        recorder = SpanRecorder(capacity=16)
        recorder.record("mine", recorder.origin, 0.1, {"trace_id": "aaaa"})
        recorder.record("other", recorder.origin + 1, 0.1,
                        {"trace_id": "bbbb"})
        recorder.record("untagged", recorder.origin + 2, 0.1, {})
        doc = merge_remote_trace(recorder, trace_id="aaaa")
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["mine"]

    def test_accepts_chrome_trace_dicts(self):
        from repro.obs.tracing import merge_remote_trace

        recorder = self.build_recorder(["live.span"])
        exported = self.build_recorder(["loaded.span"]).to_chrome_trace()
        doc = merge_remote_trace(recorder, exported)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"live.span", "loaded.span"}
        # Nested metadata from the exported doc is not duplicated.
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 2

    def test_display_unit(self):
        from repro.obs.tracing import merge_remote_trace

        assert merge_remote_trace()["displayTimeUnit"] == "ms"
