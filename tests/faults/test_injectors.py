"""Tests for the fault injectors: determinism, targeting, semantics."""

import numpy as np
import pytest

from repro.faults import (
    BitFlipInjector,
    DropInjector,
    DuplicateInjector,
    FaultInjectingSource,
    ReorderInjector,
    SaturateInjector,
    StallInjector,
    apply_injectors,
    injectors_from_string,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.source import ConflictRecords, QuantumObservation
from repro.util.runs import WindowCounts


def _obs(quantum, counts=None, conflicts=None, width=1000):
    return QuantumObservation(
        quantum=quantum,
        t0=quantum * width,
        t1=(quantum + 1) * width,
        counts={
            name: WindowCounts(column)
            for name, column in (counts or {}).items()
        },
        conflicts=conflicts,
    )


def _counts(obs, name="membus"):
    """One channel's counts, one entry per window."""
    return obs.counts[name].expand()


def _burst_obs(quantum, seed=0, n=64, channels=("membus",)):
    rng = np.random.default_rng(seed + quantum)
    return _obs(quantum, counts={
        name: rng.integers(0, 50, size=n).astype(np.int64)
        for name in channels
    })


def _conflict_obs(quantum, seed=0, n=40):
    rng = np.random.default_rng(seed + quantum)
    times = np.sort(rng.integers(0, 1000, size=n)) + quantum * 1000
    return _obs(quantum, conflicts=ConflictRecords(
        times=times.astype(np.int64),
        replacers=rng.integers(0, 4, size=n).astype(np.int64),
        victims=rng.integers(0, 4, size=n).astype(np.int64),
    ))


def _stream(injector_text, seed, quanta=12):
    injectors = injectors_from_string(injector_text, seed=seed)
    return [
        apply_injectors(injectors, _burst_obs(q, seed=7)) for q in range(quanta)
    ]


class TestDeterminism:
    @pytest.mark.parametrize("text", [
        "drop:0.3", "dup:0.2", "reorder:8", "stall:0.1:4",
        "bitflip:0.05", "saturate:0.1", "drop:0.2,dup:0.1,bitflip:0.01",
    ])
    def test_same_seed_replays_bit_for_bit(self, text):
        first = _stream(text, seed=5)
        second = _stream(text, seed=5)
        for a, b in zip(first, second):
            assert a.faults == b.faults
            for name in a.counts:
                np.testing.assert_array_equal(
                    _counts(a, name), _counts(b, name)
                )

    @pytest.mark.parametrize("text", ["drop:0.3", "stall:0.3:8", "reorder:8"])
    def test_runs_perturb_as_their_windows(self, text):
        """A channel carried as runs is perturbed window by window."""
        values = np.array([3, 0, 7, 0], dtype=np.int64)
        lengths = np.array([5, 20, 3, 12], dtype=np.int64)
        runs, windows = (
            apply_injectors(
                injectors_from_string(text, seed=3),
                QuantumObservation(
                    quantum=0, t0=0, t1=1000, counts={"membus": counts}
                ),
            )
            for counts in (
                WindowCounts(values, lengths),
                WindowCounts(np.repeat(values, lengths)),
            )
        )
        kind = text.split(":")[0]
        assert runs.faults == windows.faults == (f"{kind}:membus",)
        np.testing.assert_array_equal(_counts(runs), _counts(windows))

    def test_different_seeds_differ(self):
        first = _stream("drop:0.5", seed=1)
        second = _stream("drop:0.5", seed=2)
        assert any(
            not np.array_equal(_counts(a), _counts(b))
            for a, b in zip(first, second)
        )

    def test_conflict_path_is_deterministic(self):
        for _ in range(2):
            injectors = injectors_from_string("drop:0.4", seed=3)
            outs = [
                apply_injectors(injectors, _conflict_obs(q)) for q in range(6)
            ]
            times = np.concatenate([o.conflicts.times for o in outs])
            if _ == 0:
                baseline = times
            else:
                np.testing.assert_array_equal(times, baseline)


class TestSemantics:
    def test_original_observation_never_mutated(self):
        obs = _burst_obs(0)
        pristine = _counts(obs).copy()
        apply_injectors(injectors_from_string("drop:0.9,bitflip:0.5"), obs)
        np.testing.assert_array_equal(_counts(obs), pristine)
        assert obs.faults == ()

    def test_drop_only_removes_events(self):
        obs = _burst_obs(0)
        out = DropInjector(0.5, seed=1).apply(obs)
        assert _counts(out).sum() < _counts(obs).sum()
        assert np.all(_counts(out) >= 0)
        assert "drop:membus" in out.faults

    def test_dup_only_adds_events(self):
        obs = _burst_obs(0)
        out = DuplicateInjector(0.5, seed=1).apply(obs)
        assert _counts(out).sum() > _counts(obs).sum()
        assert np.all(_counts(out) >= _counts(obs))

    def test_reorder_preserves_event_totals(self):
        obs = _burst_obs(0)
        out = ReorderInjector(8, seed=1).apply(obs)
        assert _counts(out).sum() == _counts(obs).sum()
        assert not np.array_equal(_counts(out), _counts(obs))

    def test_reorder_keeps_conflict_times_sorted(self):
        obs = _conflict_obs(0)
        out = ReorderInjector(8, seed=1).apply(obs)
        np.testing.assert_array_equal(out.conflicts.times, obs.conflicts.times)
        assert not (
            np.array_equal(out.conflicts.replacers, obs.conflicts.replacers)
            and np.array_equal(out.conflicts.victims, obs.conflicts.victims)
        )

    def test_stall_zeroes_contiguous_runs(self):
        obs = _obs(0, counts={"membus": np.full(64, 5, dtype=np.int64)})
        out = StallInjector(0.2, max_len=4, seed=1).apply(obs)
        assert (_counts(out) == 0).any()
        kept = _counts(out) != 0
        assert np.all(_counts(out)[kept] == 5)

    def test_saturate_pins_to_entry_max(self):
        obs = _burst_obs(0)
        out = SaturateInjector(0.3, seed=1).apply(obs)
        pinned = _counts(out) == SaturateInjector.SATURATED
        assert pinned.any()

    def test_bitflip_changes_values_not_length(self):
        obs = _burst_obs(0)
        out = BitFlipInjector(0.3, seed=1).apply(obs)
        assert _counts(out).size == _counts(obs).size
        assert not np.array_equal(_counts(out), _counts(obs))

    def test_channel_targeting(self):
        obs = _burst_obs(0, channels=("membus", "divider"))
        out = DropInjector(0.9, channel="membus", seed=1).apply(obs)
        np.testing.assert_array_equal(
            _counts(out, "divider"), _counts(obs, "divider")
        )
        assert out.faults == ("drop:membus",)
        assert out.faults_for("divider") == ()
        assert out.faults_for("membus") == ("drop:membus",)

    def test_untouched_observation_returned_unchanged(self):
        obs = _burst_obs(0)
        out = DropInjector(0.0, seed=1).apply(obs)
        assert out is obs


class TestFaultInjectingSource:
    class _Inner:
        quantum_cycles = 1000

        def __init__(self):
            self.consumers = []

        def channels(self):
            return ()

        def subscribe(self, consumer):
            self.consumers.append(consumer)

        def emit(self, obs):
            for consumer in self.consumers:
                consumer.push_quantum(obs)

    class _Collector:
        def __init__(self):
            self.seen = []

        def push_quantum(self, obs):
            self.seen.append(obs)

    def test_wraps_and_tags(self):
        inner = self._Inner()
        metrics = MetricsRegistry()
        source = FaultInjectingSource(
            inner, injectors_from_string("drop:0.5", seed=1), metrics=metrics
        )
        sink = self._Collector()
        source.subscribe(sink)
        for q in range(8):
            inner.emit(_burst_obs(q))
        assert len(sink.seen) == 8
        assert any(obs.faults for obs in sink.seen)
        snapshot = metrics.to_dict()["metrics"]
        assert snapshot["cchunter_fault_quanta_total"]["series"][0]["value"] > 0
        assert (
            snapshot["cchunter_fault_events_dropped_total"]["series"][0]["value"]
            > 0
        )

    def test_no_injectors_passes_through(self):
        inner = self._Inner()
        source = FaultInjectingSource(inner, [])
        sink = self._Collector()
        source.subscribe(sink)
        obs = _burst_obs(0)
        inner.emit(obs)
        assert sink.seen[0] is obs
