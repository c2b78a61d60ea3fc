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


@pytest.fixture(scope="module")
def divider_archive(tmp_path_factory):
    run = run_channel_session(
        "divider", Message.random(20, 4), bandwidth_bps=100.0, seed=4
    )
    path = tmp_path_factory.mktemp("traces") / "div.npz"
    export_traces(run.machine, path)
    return path


def _rewritten(src, dst, **records):
    """The archive at ``src`` with ``records`` replaced or added, written
    to ``dst`` with its checksum manifest recomputed."""
    with np.load(src) as data:
        payload = {key: data[key] for key in data.files}
    payload.update(records)
    del payload["checksum_manifest"]
    payload["checksum_manifest"] = np.array(_checksum_manifest(payload))
    np.savez_compressed(dst, **payload)
    return dst


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
    n = n_quanta * per_quantum
    forward = (np.arange(n) // phase) % 2 == 0
    return _rewritten(
        path, path,
        cache_times=(
            np.arange(n) * (machine.quantum_cycles // per_quantum)
        ).astype(np.int64),
        cache_replacers=np.where(forward, a, b).astype(dtype),
        cache_victims=np.where(forward, b, a).astype(dtype),
    )


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


class TestMalformedRecords:
    """Records whose checksums match but that replay cannot slice are
    corrupt: the load raises, or blanks them under ``skip``."""

    def test_short_dense_counts(self, divider_archive, tmp_path):
        with np.load(divider_archive) as data:
            counts = data["divider_wait_counts_0"]
        path = _rewritten(
            divider_archive, tmp_path / "short.npz",
            divider_wait_counts_0=counts[: counts.size // 2],
        )
        with pytest.raises(TraceCorruptionError, match="wait_counts_0"):
            load_traces(path)
        archive = load_traces(path, on_corruption="skip")
        assert archive.gaps == ("divider(core 0)",)
        blanked = archive.divider_wait_counts[0]
        assert blanked.shape == counts.shape
        assert not blanked.any()
        verdict = analyze_traces(archive).verdict_for("divider(core 0)")
        assert verdict.health == "degraded"

    def test_dense_key_without_core_index(self, divider_archive, tmp_path):
        with np.load(divider_archive) as data:
            counts = data["divider_wait_counts_0"]
        path = _rewritten(
            divider_archive, tmp_path / "extra.npz",
            divider_wait_counts_x=counts,
        )
        with pytest.raises(TraceCorruptionError, match="wait_counts_x"):
            load_traces(path)
        archive = load_traces(path, on_corruption="skip")
        # Dropped, not blanked: no core to replay it on, so no unit gap.
        assert archive.gaps == ()
        assert sorted(archive.divider_wait_counts) == [0, 1, 2, 3]

    def test_unsorted_event_times(self, bus_session, tmp_path):
        _run, src, archive = bus_session
        path = _rewritten(
            src, tmp_path / "reversed.npz",
            bus_lock_times=archive.bus_lock_times[::-1].copy(),
        )
        with pytest.raises(TraceCorruptionError, match="bus_lock_times"):
            load_traces(path)
        skipped = load_traces(path, on_corruption="skip")
        assert skipped.gaps == ("membus",)
        assert skipped.bus_lock_times.size == 0

    def test_ragged_cache_columns(self, divider_archive, tmp_path):
        with np.load(divider_archive) as data:
            victims = data["cache_victims"]
        assert victims.size
        path = _rewritten(
            divider_archive, tmp_path / "ragged.npz",
            cache_victims=victims[: victims.size // 2],
        )
        with pytest.raises(TraceCorruptionError, match="cache_victims"):
            load_traces(path)
        archive = load_traces(path, on_corruption="skip")
        assert archive.gaps == ("cache",)
        assert archive.cache_times.size == 0
        assert archive.cache_replacers.size == 0
        assert archive.cache_victims.size == 0


    def test_non_positive_metadata(self, divider_archive, tmp_path):
        path = _rewritten(
            divider_archive, tmp_path / "zero-dt.npz",
            divider_dt=np.array([0]),
        )
        for mode in ("raise", "skip"):
            with pytest.raises(TraceCorruptionError, match="positive"):
                load_traces(path, on_corruption=mode)


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

    def test_offline_divider_unit_included_when_active(
        self, divider_archive
    ):
        report = analyze_traces(load_traces(divider_archive))
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
