"""Tests for the per-stage latency attribution profiler."""

import json

import pytest

from repro.obs.profile import (
    MAX_QUANTA,
    PROFILE_FORMAT,
    ProfileError,
    StageProfiler,
    disable_profiling,
    enable_profiling,
    load_profile,
    merge_profiles,
    render_collapsed,
    render_top,
    to_speedscope,
)
from repro.obs.tracing import (
    disable_tracing,
    enable_tracing,
    get_profiler,
    trace_span,
)


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with tracing and profiling disabled."""
    disable_tracing()
    disable_profiling()
    yield
    disable_tracing()
    disable_profiling()


def _drive(profiler, spans):
    """Feed (name, attrs, t0, t1) span intervals straight into a profiler."""
    for name, attrs, t0, t1 in spans:
        profiler.begin(name, attrs, t0)
        profiler.end(t1)


class TestStageAccounting:
    def test_nested_self_child_split(self):
        prof = StageProfiler(cpu_clock=lambda: 0.0)
        prof.begin("sim.quantum", {"quantum": 0}, 0.0)
        prof.begin("source.emit", {"quantum": 0}, 1.0)
        prof.end(3.0)  # child: 2s
        prof.end(10.0)  # parent: 10s total
        stats = prof.stats()
        parent = stats[("sim.quantum",)]
        child = stats[("sim.quantum", "source.emit")]
        assert parent.wall == pytest.approx(10.0)
        assert parent.self_wall == pytest.approx(8.0)
        assert child.wall == pytest.approx(2.0)
        assert child.self_wall == pytest.approx(2.0)

    def test_unit_attr_becomes_per_unit_stage_label(self):
        prof = StageProfiler()
        _drive(prof, [
            ("analyzer.push", {"unit": "membus"}, 0.0, 1.0),
            ("analyzer.push", {"unit": "cache"}, 1.0, 2.0),
        ])
        labels = {path[-1] for path in prof.stats()}
        assert labels == {"analyzer.push[membus]", "analyzer.push[cache]"}

    def test_calls_accumulate_per_path(self):
        prof = StageProfiler()
        _drive(prof, [("a", {}, float(i), float(i) + 0.5) for i in range(4)])
        (stats,) = prof.stats().values()
        assert stats.calls == 4
        assert stats.wall == pytest.approx(2.0)

    def test_unbalanced_end_is_dropped_not_fatal(self):
        prof = StageProfiler()
        prof.end(1.0)  # nothing open
        assert prof.stats() == {}
        assert prof.spans_profiled == 0

    def test_quantum_inherited_from_parent_frame(self):
        prof = StageProfiler()
        prof.begin("sim.quantum", {"quantum": 7}, 0.0)
        prof.begin("engine.step", {}, 0.1)  # no quantum attr of its own
        prof.end(0.2)
        prof.end(1.0)
        rows = prof.to_dict()["quanta"]["rows"]
        (row,) = rows
        assert row["quantum"] == 7
        assert set(row["stages"]) == {"sim.quantum", "engine.step"}


class TestPerQuantumRing:
    def test_rows_bounded_oldest_evicted(self):
        prof = StageProfiler()
        _drive(prof, [
            ("sim.quantum", {"quantum": q}, float(q), float(q) + 0.5)
            for q in range(MAX_QUANTA + 2)
        ])
        doc = prof.to_dict()
        assert [r["quantum"] for r in doc["quanta"]["rows"]] == list(
            range(2, MAX_QUANTA + 2)
        )
        assert doc["quanta"]["dropped"] == 2

    def test_row_accumulates_self_time_per_label(self):
        prof = StageProfiler()
        _drive(prof, [
            ("a", {"quantum": 0}, 0.0, 1.0),
            ("a", {"quantum": 0}, 2.0, 2.5),
        ])
        (row,) = prof.to_dict()["quanta"]["rows"]
        assert row["stages"]["a"]["self_wall_s"] == pytest.approx(1.5)


class TestDocumentAndMerge:
    def _sample_doc(self):
        prof = StageProfiler(cpu_clock=lambda: 0.0)
        prof.begin("sim.quantum", {"quantum": 0}, 0.0)
        prof.begin("analyzer.push", {"unit": "membus", "quantum": 0}, 1.0)
        prof.end(2.0)
        prof.end(4.0)
        return prof.to_dict()

    def test_to_dict_format_and_fields(self):
        doc = self._sample_doc()
        assert doc["format"] == PROFILE_FORMAT
        assert doc["spans"] == 2
        paths = [tuple(e["path"]) for e in doc["stages"]]
        assert ("sim.quantum",) in paths
        assert ("sim.quantum", "analyzer.push[membus]") in paths
        for entry in doc["stages"]:
            assert entry["self_wall_s"] <= entry["wall_s"] + 1e-12
            assert entry["depth"] == len(entry["path"]) - 1

    def test_merge_dict_doubles_everything(self):
        doc = self._sample_doc()
        merged = StageProfiler()
        merged.merge_dict(doc)
        merged.merge_dict(doc)
        out = {tuple(e["path"]): e for e in merged.to_dict()["stages"]}
        base = {tuple(e["path"]): e for e in doc["stages"]}
        for path, entry in base.items():
            assert out[path]["calls"] == 2 * entry["calls"]
            assert out[path]["wall_s"] == pytest.approx(2 * entry["wall_s"])
            assert out[path]["self_wall_s"] == pytest.approx(
                2 * entry["self_wall_s"]
            )

    def test_merge_profiles_sums_wall(self):
        doc = self._sample_doc()
        out = merge_profiles([doc, doc])
        assert out["spans"] == 4
        assert out["wall_s"] == pytest.approx(2 * doc["wall_s"])

    def test_merge_rejects_non_profile(self):
        with pytest.raises(ProfileError):
            StageProfiler().merge_dict({"format": "something/else"})

    def test_write_and_load_round_trip(self, tmp_path):
        prof = StageProfiler()
        _drive(prof, [("a", {}, 0.0, 1.0)])
        path = tmp_path / "profile.json"
        written = prof.write_json(str(path))
        loaded = load_profile(str(path))
        assert loaded == json.loads(json.dumps(written))

    def test_load_rejects_non_profile_file(self, tmp_path):
        path = tmp_path / "not_profile.json"
        path.write_text('{"format": "repro.obs.metrics/v1"}')
        with pytest.raises(ProfileError):
            load_profile(str(path))


class TestRenderers:
    def _doc(self):
        prof = StageProfiler(cpu_clock=lambda: 0.0)
        prof.begin("sim.quantum", {"quantum": 0}, 0.0)
        prof.begin("source.emit", {}, 1.0)
        prof.end(2.0)
        prof.end(3.0)
        return prof.to_dict()

    def test_collapsed_stacks_weight_is_self_micros(self):
        lines = render_collapsed(self._doc()).strip().splitlines()
        weights = dict(line.rsplit(" ", 1) for line in lines)
        assert weights["sim.quantum"] == str(2_000_000)
        assert weights["sim.quantum;source.emit"] == str(1_000_000)

    def test_speedscope_document_shape(self):
        ss = to_speedscope(self._doc(), name="test")
        (profile,) = ss["profiles"]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        frame_names = [f["name"] for f in ss["shared"]["frames"]]
        for stack in profile["samples"]:
            assert all(0 <= idx < len(frame_names) for idx in stack)

    def test_render_top_mentions_stages_and_coverage(self):
        text = render_top(self._doc(), n=5)
        assert "sim.quantum" in text
        assert "source.emit" in text
        assert "attributed to stages" in text

    def test_renderers_reject_non_profile(self):
        for fn in (render_collapsed, to_speedscope, render_top):
            with pytest.raises(ProfileError):
                fn({"format": "nope"})


class TestGlobalHook:
    def test_enable_feeds_trace_spans(self):
        prof = enable_profiling()
        assert get_profiler() is prof
        with trace_span("sim.quantum", quantum=1):
            with trace_span("analyzer.push", unit="membus", quantum=1):
                pass
        disable_profiling()
        assert get_profiler() is None
        paths = set(prof.stats())
        assert ("sim.quantum",) in paths
        assert ("sim.quantum", "analyzer.push[membus]") in paths
        # After disabling, spans no longer reach the profiler.
        with trace_span("sim.quantum", quantum=2):
            pass
        assert prof.spans_profiled == 2

    def test_recorder_and_profiler_share_one_interval(self):
        recorder = enable_tracing()
        prof = enable_profiling()
        with trace_span("session.verdicts", quantum=0):
            pass
        (span,) = recorder.spans()
        (stats,) = prof.stats().values()
        # Same clock reads on both sides: identical duration, not two
        # nearly-equal measurements.
        assert stats.wall == pytest.approx(span.duration, abs=0.0)

    def test_span_body_exception_still_closes_frame(self):
        prof = enable_profiling()
        with pytest.raises(ValueError):
            with trace_span("sim.quantum", quantum=0):
                raise ValueError("boom")
        assert prof.stats()[("sim.quantum",)].calls == 1

    def test_profiled_session_splits_verdicts_by_unit(self):
        from repro.analysis.figures import run_channel_session
        from repro.util.bitstream import Message

        prof = enable_profiling()
        run_channel_session(
            "membus", Message.from_bits([1, 0] * 4), bandwidth_bps=100.0,
            seed=3, noise=False, track_detection_latency=True,
        )
        disable_profiling()
        verdicts = (
            "sim.quantum", "source.emit", "session.verdicts",
            "analyzer.verdict[membus]",
        )
        assert verdicts in prof.stats()
        assert prof.stats()[verdicts].calls == prof.stats()[
            verdicts[:3]
        ].calls
        assert "analyzer.verdict[membus]" in render_collapsed(prof.to_dict())

    def test_profiled_cache_session_shows_settle_inside_quantum(self):
        """The cache's conflict classification is a stage of the
        simulated quantum; a membus session without noise has no cache
        traffic, so only a noisy cache session shows it."""
        from repro.analysis.figures import run_channel_session
        from repro.util.bitstream import Message

        prof = enable_profiling()
        run = run_channel_session(
            "cache", Message.from_bits([1, 0] * 2), bandwidth_bps=10.0,
            seed=3, noise=True, n_sets_total=64,
        )
        disable_profiling()
        settle = prof.stats()[("sim.quantum", "cache.settle")]
        assert settle.calls >= run.quanta
        assert settle.wall > 0
        assert "sim.quantum;cache.settle" in render_collapsed(prof.to_dict())
