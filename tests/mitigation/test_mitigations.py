"""Tests for post-detection mitigations: each one defeats its channel."""

import pytest

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.channels.membus import MemoryBusCovertChannel
from repro.errors import ConfigError
from repro.mitigation import (
    apply_bus_lock_throttle,
    apply_clock_fuzzing,
    partition_cache_ways,
)
from repro.sim.machine import Machine
from repro.sim.resources.bus import MemoryBus
from repro.sim.resources.cache import SharedCache
from repro.util.bitstream import Message


MSG = Message.from_bits([1, 0, 1, 1, 0, 0, 1, 0])


def run_bus_channel(machine, bandwidth=1000.0):
    channel = MemoryBusCovertChannel(
        machine, ChannelConfig(message=MSG, bandwidth_bps=bandwidth)
    )
    channel.deploy(trojan_ctx=0, spy_ctx=2)
    machine.run_until(channel.transmission_end + 1)
    return channel


def run_cache_channel(machine, bandwidth=500.0):
    channel = CacheCovertChannel(
        machine, ChannelConfig(message=MSG, bandwidth_bps=bandwidth),
        n_sets_total=32,
    )
    channel.deploy()
    machine.run_until(channel.transmission_end + 1)
    return channel


class TestBusLockThrottle:
    def test_throttle_caps_lock_density(self):
        machine = Machine(seed=5)
        apply_bus_lock_throttle(machine, min_period=100_000)
        channel = run_bus_channel(machine)
        counts = machine.bus_lock_tap.density_counts(
            100_000, 0, channel.transmission_end
        )
        assert counts.max() <= 2  # vs ~20 unthrottled

    def test_throttle_breaks_decode(self):
        machine = Machine(seed=5)
        apply_bus_lock_throttle(machine, min_period=100_000)
        channel = run_bus_channel(machine)
        # Locks now cover only a sliver of each '1' bit: the spy's
        # averaged latency no longer clears the threshold.
        assert channel.bit_error_rate() > 0.2

    def test_unthrottled_contexts_unaffected(self):
        machine = Machine(seed=5)
        throttle = apply_bus_lock_throttle(
            machine, min_period=100_000, contexts={7}
        )
        channel = run_bus_channel(machine)
        assert channel.bit_error_rate() == 0.0
        assert throttle.locks_delayed == 0

    def test_remove_restores(self):
        machine = Machine(seed=5)
        throttle = apply_bus_lock_throttle(machine, min_period=100_000)
        throttle.remove()
        channel = run_bus_channel(machine)
        assert channel.bit_error_rate() == 0.0

    def test_bad_period(self):
        with pytest.raises(ConfigError):
            apply_bus_lock_throttle(Machine(seed=1), min_period=0)

    def test_benign_rates_untouched(self):
        """Benign noise locks are far sparser than the cap; the throttle
        must not delay them."""
        throttle = apply_bus_lock_throttle(Machine(seed=1))
        assert throttle.effective_max_lock_rate >= 1 / 100_000


class TestCachePartition:
    def test_partition_silences_channel(self):
        machine = Machine(seed=6)
        baseline_machine = Machine(seed=6)
        run_cache_channel(baseline_machine)
        assert baseline_machine.cache_miss_tap.count > 100

        partition_cache_ways(machine, suspect_contexts=(0, 2))
        run_cache_channel(machine)
        # No cross-group evictions -> no trojan/spy conflict events.
        _, reps, vics = machine.cache_miss_tap.records()
        pair_events = (
            ((reps == 0) & (vics == 2)) | ((reps == 2) & (vics == 0))
        ).sum()
        assert pair_events < baseline_machine.cache_miss_tap.count * 0.05

    def test_partition_breaks_decode(self):
        machine = Machine(seed=6)
        partition_cache_ways(machine, suspect_contexts=(0, 2))
        channel = run_cache_channel(machine)
        assert channel.bit_error_rate() > 0.2

    def test_way_budget_validation(self):
        with pytest.raises(ConfigError):
            partition_cache_ways(Machine(seed=1), (0,), suspect_ways=8)
        with pytest.raises(ConfigError):
            partition_cache_ways(Machine(seed=1), ())

    def test_suspects_in_separate_groups(self):
        machine = Machine(seed=1)
        partition = partition_cache_ways(machine, suspect_contexts=(0, 2))
        assert partition.group_of_ctx[0] != partition.group_of_ctx[2]
        assert partition.group_of_ctx[1] == partition.group_of_ctx[3]

    def test_remove_restores(self):
        machine = Machine(seed=6)
        partition = partition_cache_ways(machine, suspect_contexts=(0, 2))
        partition.remove()
        channel = run_cache_channel(machine)
        assert channel.bit_error_rate() <= 1 / 8  # cold-start bit only

    def test_accesses_step_the_jitter_pool_not_the_rng(self):
        """Partitioned misses draw jitter as ``access`` does: one pool
        step each, leaving the stream noise traffic draws from alone."""
        machine = Machine(seed=6)
        cache = machine.l2
        partition_cache_ways(machine, suspect_contexts=(0, 2))
        rng_state = cache._rng.bit_generator.state
        pool = cache._jitter_pool
        start = cache._jitter_idx
        blocks = [(s, 10_000 + s) for s in range(20)]
        for step, (set_index, tag) in enumerate(blocks + blocks, start=1):
            latency, hit = cache.access(0, set_index, tag, step)
            assert hit == (step > len(blocks))
            base = cache.config.hit_latency if hit else cache.config.miss_latency
            assert latency == base + pool[(start + step) % len(pool)]
        assert cache._jitter_idx == (start + 2 * len(blocks)) % len(pool)
        assert cache._rng.bit_generator.state == rng_state


class TestClockFuzzing:
    def test_fuzz_degrades_bus_decode(self):
        machine = Machine(seed=7)
        apply_clock_fuzzing(machine, fuzz_cycles=3000)
        channel = run_bus_channel(machine)
        assert channel.bit_error_rate() > 0.1

    def test_small_fuzz_harmless(self):
        machine = Machine(seed=7)
        apply_clock_fuzzing(machine, fuzz_cycles=10)
        channel = run_bus_channel(machine)
        assert channel.bit_error_rate() == 0.0

    def test_remove_restores(self):
        machine = Machine(seed=7)
        fuzzer = apply_clock_fuzzing(machine, fuzz_cycles=3000)
        fuzzer.remove()
        channel = run_bus_channel(machine)
        assert channel.bit_error_rate() == 0.0

    def test_bad_amplitude(self):
        with pytest.raises(ConfigError):
            apply_clock_fuzzing(Machine(seed=1), fuzz_cycles=0)


class TestRemoveRestoresClassLookup:
    """remove() pops the instance override instead of assigning the saved
    bound method back, so class-level patches reach the machine again."""

    def _class_patch(self, monkeypatch, cls, name, calls):
        original = getattr(cls, name)

        def patched(self, *args):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, patched)

    def test_throttle(self, monkeypatch):
        machine = Machine(seed=5)
        apply_bus_lock_throttle(machine, min_period=100_000).remove()
        assert "lock_burst" not in machine.bus.__dict__
        calls = []
        self._class_patch(monkeypatch, MemoryBus, "lock_burst", calls)
        machine.bus.lock_burst(0, 0, 3, 5_000)
        assert calls == ["lock_burst"]

    def test_fuzzer(self, monkeypatch):
        machine = Machine(seed=7)
        apply_clock_fuzzing(machine, fuzz_cycles=3000).remove()
        assert "sample" not in machine.bus.__dict__
        assert "access_series" not in machine.l2.__dict__
        calls = []
        self._class_patch(monkeypatch, MemoryBus, "sample", calls)
        self._class_patch(monkeypatch, SharedCache, "access_series", calls)
        machine.bus.sample(1, 0, 4, 1_000)
        machine.l2.access_series(1, ((0, 1),), 8, 0)
        assert calls == ["sample", "access_series"]

    def test_partition(self):
        machine = Machine(seed=6)
        partition_cache_ways(machine, suspect_contexts=(0, 2)).remove()
        assert "access" not in machine.l2.__dict__

    def test_stacked_throttles_unwind_in_reverse(self):
        machine = Machine(seed=5)
        outer = apply_bus_lock_throttle(machine, min_period=100_000)
        inner = apply_bus_lock_throttle(machine, min_period=200_000)
        inner.remove()
        # The outer throttle's wrapper is back in place and still acts.
        machine.bus.lock_burst(0, 0, 3, 5_000)
        assert outer.locks_delayed == 3
        assert inner.locks_delayed == 0
        outer.remove()
        assert "lock_burst" not in machine.bus.__dict__
