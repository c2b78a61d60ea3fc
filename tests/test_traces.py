"""Tests for trace export / offline analysis."""

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.errors import DetectionError, TraceCorruptionError
from repro.sim.machine import Machine
from repro.traces import (
    _checksum_manifest,
    analyze_traces,
    export_traces,
    load_traces,
)
from repro.util.bitstream import Message


@pytest.fixture(scope="module")
def bus_session(tmp_path_factory):
    run = run_channel_session(
        "membus", Message.random(30, 7), bandwidth_bps=100.0, seed=7
    )
    path = tmp_path_factory.mktemp("traces") / "bus.npz"
    archive = export_traces(run.machine, path)
    return run, path, archive


class TestRoundTrip:
    def test_load_equals_export(self, bus_session):
        _run, path, archive = bus_session
        loaded = load_traces(path)
        assert loaded.quantum_cycles == archive.quantum_cycles
        assert loaded.bus_lock_times.tolist() == (
            archive.bus_lock_times.tolist()
        )
        assert loaded.cache_times.size == archive.cache_times.size
        assert set(loaded.divider_wait_counts) == {0, 1, 2, 3}

    def test_export_requires_quanta(self, tmp_path):
        with pytest.raises(DetectionError):
            export_traces(Machine(seed=1), tmp_path / "x.npz")


def _pingpong_archive(
    tmp_path, a, b, n_quanta=4, per_quantum=512, phase=32, dtype=np.int16
):
    """An idle machine's archive with its conflict records replaced by a
    covert ping-pong train between contexts ``a`` and ``b`` (``phase``
    conflicts each way, alternating) in ``dtype`` columns, checksums
    recomputed."""
    machine = Machine(seed=1)
    machine.run_quanta(n_quanta)
    path = tmp_path / f"pingpong-{a}-{b}.npz"
    export_traces(machine, path)
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    n = n_quanta * per_quantum
    forward = (np.arange(n) // phase) % 2 == 0
    payload["cache_times"] = (
        np.arange(n) * (machine.quantum_cycles // per_quantum)
    ).astype(np.int64)
    payload["cache_replacers"] = np.where(forward, a, b).astype(dtype)
    payload["cache_victims"] = np.where(forward, b, a).astype(dtype)
    del payload["checksum_manifest"]
    payload["checksum_manifest"] = np.array(_checksum_manifest(payload))
    np.savez_compressed(path, **payload)
    return path


class TestConflictContextIds:
    """Conflict records carry 3-bit context ids; an archive holding wider
    ones would alias pairs in the oscillation analysis ((0, 9) reads as
    (1, 1)) and hide the channel, so loading refuses it."""

    def test_three_bit_pair_loads_and_detects(self, tmp_path):
        archive = load_traces(_pingpong_archive(tmp_path, 0, 2))
        verdict = analyze_traces(archive).verdict_for("cache")
        assert verdict.detected
        assert verdict.oscillating_windows == 4

    def test_wide_context_ids_rejected(self, tmp_path):
        for a, b in ((0, 9), (2, 8)):
            path = _pingpong_archive(tmp_path, a, b)
            with pytest.raises(TraceCorruptionError, match="3 bits"):
                load_traces(path)
            with pytest.raises(TraceCorruptionError, match="3 bits"):
                load_traces(path, on_corruption="skip")

    def test_float_context_ids_rejected(self, tmp_path):
        """In-range ids in a float column are refused too: the oscillation
        analysis packs ids with integer shifts."""
        path = _pingpong_archive(tmp_path, 0, 2, dtype=np.float64)
        with pytest.raises(TraceCorruptionError, match="integer context ids"):
            load_traces(path)


class TestOfflineAnalysis:
    def test_bus_channel_detected_offline(self, bus_session):
        _run, path, _archive = bus_session
        report = analyze_traces(load_traces(path))
        assert report.verdict_for("membus").detected
        assert not report.verdict_for("cache").detected

    def test_offline_covers_active_units(self, bus_session):
        _run, path, _archive = bus_session
        report = analyze_traces(load_traces(path))
        units = {v.unit for v in report.verdicts}
        assert "membus" in units
        assert "cache" in units
        # Idle units (no noise pair shared a core's divider) are skipped.
        assert not any(u.startswith("divider") for u in units)

    def test_offline_divider_unit_included_when_active(self, tmp_path):
        run = run_channel_session(
            "divider", Message.random(20, 4), bandwidth_bps=100.0, seed=4
        )
        path = tmp_path / "div.npz"
        export_traces(run.machine, path)
        report = analyze_traces(load_traces(path))
        assert report.verdict_for("divider(core 0)").detected

    def test_cache_channel_detected_offline(self, tmp_path):
        run = run_channel_session(
            "cache", Message.random(10, 3), bandwidth_bps=100.0, seed=3,
            n_sets_total=64,
        )
        path = tmp_path / "cache.npz"
        export_traces(run.machine, path)
        report = analyze_traces(load_traces(path))
        verdict = report.verdict_for("cache")
        assert verdict.detected
        assert verdict.dominant_period == pytest.approx(64, rel=0.3)

    def test_custom_delta_t(self, bus_session):
        _run, path, _archive = bus_session
        report = analyze_traces(load_traces(path), bus_dt=1_000_000)
        # Wider Δt still exposes the burst mode for this channel.
        assert report.verdict_for("membus").max_likelihood_ratio > 0.8

    def test_divider_rebinning(self, tmp_path):
        run = run_channel_session(
            "divider", Message.random(20, 4), bandwidth_bps=100.0, seed=4
        )
        path = tmp_path / "div.npz"
        export_traces(run.machine, path)
        archive = load_traces(path)
        report = analyze_traces(archive, divider_dt=archive.divider_dt * 4)
        assert report.verdict_for("divider(core 0)").detected

    def test_non_multiple_dt_rejected(self, tmp_path):
        run = run_channel_session(
            "divider", Message.random(20, 4), bandwidth_bps=100.0, seed=4
        )
        path = tmp_path / "div2.npz"
        export_traces(run.machine, path)
        archive = load_traces(path)
        with pytest.raises(DetectionError):
            analyze_traces(archive, divider_dt=archive.divider_dt + 1)

    def test_offline_matches_online_verdict(self, bus_session):
        run, path, _archive = bus_session
        online = run.hunter.report().verdict_for("membus")
        offline = analyze_traces(load_traces(path)).verdict_for("membus")
        assert online.detected == offline.detected
        assert offline.max_likelihood_ratio == pytest.approx(
            online.max_likelihood_ratio, abs=0.05
        )


class TestLiveReplayParity:
    """Replay goes through the same pipeline as live sessions, so the
    verdicts must be *identical*, not merely close."""

    def test_bus_replay_verdict_identical(self, bus_session):
        run, path, _archive = bus_session
        live = run.hunter.report().verdict_for("membus")
        replayed = analyze_traces(load_traces(path)).verdict_for("membus")
        assert replayed == live

    def test_cache_replay_verdict_identical(self, tmp_path):
        run = run_channel_session(
            "cache", Message.random(10, 3), bandwidth_bps=100.0, seed=3,
            n_sets_total=64,
        )
        path = tmp_path / "cache.npz"
        export_traces(run.machine, path)
        live = run.hunter.report().verdict_for("cache")
        replayed = analyze_traces(load_traces(path)).verdict_for("cache")
        assert replayed == live

    def test_divider_replay_verdict_identical(self, tmp_path):
        run = run_channel_session(
            "divider", Message.random(20, 4), bandwidth_bps=100.0, seed=4
        )
        path = tmp_path / "div.npz"
        export_traces(run.machine, path)
        live = run.hunter.report().verdict_for("divider(core 0)")
        replayed = analyze_traces(load_traces(path)).verdict_for(
            "divider(core 0)"
        )
        assert replayed == live
