"""Tests for the workload framework."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads.base import (
    ActivityProfile,
    CacheLoopPattern,
    _loop_pattern_accesses,
    workload_process,
)
from tests.sim.tap_reference import recorded_times


def _loop_pattern_tuples(pattern, machine, ctx_salt, instance, rng):
    """One loop-pattern episode as ``(set, tag)`` tuples: the nested-loop
    version, kept verbatim as the reference for the array one."""
    n_sets = machine.config.l2.n_sets
    jitter = int(rng.integers(-pattern.base_jitter, pattern.base_jitter + 1))
    base = (pattern.base_set + jitter) % n_sets
    lines = max(1, pattern.lines_per_set - (instance % 2))
    accesses = []
    for _ in range(pattern.repeats):
        for offset in range(pattern.ws_sets):
            s = (base + offset) % n_sets
            for line in range(lines):
                tag = 3_000_000 + ctx_salt * 10_000 + offset * 8 + line
                accesses.append((s, tag))
    return tuple(accesses)


class TestActivityProfile:
    def test_defaults_valid(self):
        profile = ActivityProfile(name="idle")
        assert profile.divider_duty == 0.0

    def test_bad_duty(self):
        with pytest.raises(ConfigError):
            ActivityProfile(name="x", divider_duty=1.5)

    def test_bad_intensity(self):
        with pytest.raises(ConfigError):
            ActivityProfile(name="x", divider_intensity=0.0)

    def test_bad_chunks(self):
        with pytest.raises(ConfigError):
            ActivityProfile(name="x", chunks_per_quantum=0)

    def test_negative_rate(self):
        with pytest.raises(ConfigError):
            ActivityProfile(name="x", bus_lock_rate_per_s=-1)


class TestCacheLoopPattern:
    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            CacheLoopPattern(ws_sets=0)

    def test_bad_episodes(self):
        with pytest.raises(ConfigError):
            CacheLoopPattern(episodes_per_quantum=0)


@pytest.mark.parity
class TestLoopPatternEpisode:
    @settings(max_examples=80, deadline=None)
    @given(
        ws_sets=st.integers(1, 300),
        lines_per_set=st.integers(1, 8),
        repeats=st.integers(1, 3),
        base_set=st.integers(0, 600),
        base_jitter=st.integers(0, 16),
        n_sets=st.sampled_from((1, 7, 64, 256, 512)),
        ctx_salt=st.integers(0, 7),
        instance=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_tuple_episode(
        self, ws_sets, lines_per_set, repeats, base_set, base_jitter,
        n_sets, ctx_salt, instance, seed,
    ):
        """Same rows in the same order, and the same RNG draw."""
        pattern = CacheLoopPattern(
            ws_sets=ws_sets, lines_per_set=lines_per_set, repeats=repeats,
            base_set=base_set, base_jitter=base_jitter,
        )
        machine = SimpleNamespace(
            config=SimpleNamespace(l2=SimpleNamespace(n_sets=n_sets))
        )
        rng = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        rows = _loop_pattern_accesses(pattern, machine, ctx_salt, instance, rng)
        expected = _loop_pattern_tuples(
            pattern, machine, ctx_salt, instance, rng_ref
        )
        assert rows.dtype == np.int64
        assert rows.shape == (len(expected), 2)
        assert [tuple(row) for row in rows.tolist()] == list(expected)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestWorkloadProcess:
    def test_bus_activity_generated(self, small_machine):
        profile = ActivityProfile(name="busy", bus_lock_rate_per_s=50_000.0)
        proc = workload_process(profile, small_machine, n_quanta=2, seed=1)
        small_machine.spawn(proc, ctx=0)
        small_machine.run_quanta(2)
        assert small_machine.bus_lock_tap.count > 0

    def test_cache_activity_generated(self, small_machine):
        profile = ActivityProfile(name="mem", cache_accesses_per_quantum=200)
        proc = workload_process(profile, small_machine, n_quanta=1, seed=1)
        small_machine.spawn(proc, ctx=0)
        small_machine.run_quanta(1)
        assert small_machine.l2.hits + small_machine.l2.misses >= 190

    def test_divider_usage_registered(self, small_machine):
        profile = ActivityProfile(name="div", divider_duty=0.3)
        proc = workload_process(profile, small_machine, n_quanta=1, seed=1)
        small_machine.spawn(proc, ctx=0)
        small_machine.run_quanta(1)
        unit = small_machine.dividers[0]
        assert 0 in unit._usage and len(unit._usage[0]) > 0

    def test_lock_bursts_clustered(self, small_machine):
        profile = ActivityProfile(
            name="mail", bus_lock_bursts=(3, 5, 8, 1000)
        )
        proc = workload_process(profile, small_machine, n_quanta=1, seed=1)
        small_machine.spawn(proc, ctx=0)
        small_machine.run_quanta(1)
        # Bursts of 5-8 locks each; at least one burst fired.
        assert small_machine.bus_lock_tap.count >= 5

    def test_loop_pattern_touches_shared_region(self, small_machine):
        pattern = CacheLoopPattern(
            ws_sets=8, lines_per_set=2, repeats=1, episodes_per_quantum=10,
            base_set=100, base_jitter=0,
        )
        profile = ActivityProfile(name="web", cache_loop_pattern=pattern)
        proc = workload_process(profile, small_machine, n_quanta=1, seed=1)
        small_machine.spawn(proc, ctx=0)
        small_machine.run_quanta(1)
        touched = [
            s for s in range(100, 108)
            if small_machine.l2.resident_tags(s)
        ]
        assert touched

    def test_bad_quanta(self, small_machine):
        with pytest.raises(ConfigError):
            workload_process(ActivityProfile(name="x"), small_machine, 0)

    def test_deterministic(self, small_machine):
        from repro.sim.machine import Machine
        from repro.config import MachineConfig

        def locks(seed_machine):
            profile = ActivityProfile(name="b", bus_lock_rate_per_s=10_000.0)
            proc = workload_process(profile, seed_machine, 1, seed=5)
            seed_machine.spawn(proc, ctx=0)
            seed_machine.run_quanta(1)
            return recorded_times(seed_machine.bus_lock_tap).tolist()

        config = MachineConfig(os_quantum_seconds=0.002)
        assert locks(Machine(config, seed=1)) == locks(Machine(config, seed=1))
