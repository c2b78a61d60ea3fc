"""Tests for post-detection mitigations: each one defeats its channel."""

import pytest

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.channels.membus import MemoryBusCovertChannel
from repro.errors import ConfigError
from repro.mitigation import (
    ClockFuzzer,
    apply_bus_lock_throttle,
    apply_clock_fuzzing,
    partition_cache_ways,
)
from repro.sim.machine import Machine
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

    def test_unknown_contexts_rejected(self):
        """Throttling contexts the machine lacks would throttle nobody."""
        machine = Machine(seed=1)
        with pytest.raises(ConfigError, match=r"\[-3, 42\]"):
            apply_bus_lock_throttle(machine, contexts={-3, 42})
        assert machine.bus.throttle is None

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

    def test_unknown_suspects_rejected(self):
        """A way group for a context the machine lacks would only squeeze
        the real contexts into fewer ways."""
        machine = Machine(seed=1)
        with pytest.raises(ConfigError, match=r"\[99\]"):
            partition_cache_ways(machine, (0, 99))
        assert machine.l2.partition is None

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
        """Partitioned accesses draw jitter from the pool: one step each,
        leaving the stream noise traffic draws from alone."""
        machine = Machine(seed=6)
        cache = machine.l2
        partition_cache_ways(machine, suspect_contexts=(0, 2))
        rng_state = cache._rng.bit_generator.state
        pool = cache._jitter_pool_np.tolist()
        start = cache._jitter_idx
        blocks = [(s, 10_000 + s) for s in range(20)]
        _end, latencies = cache.access_series(0, blocks + blocks, 0, 1)
        assert (cache.hits, cache.misses) == (len(blocks), len(blocks))
        for step, latency in enumerate(latencies.tolist(), start=1):
            hit = step > len(blocks)
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

    def test_empty_series_still_draws_a_correlated_offset(self):
        """One offset per timing call, an empty cache series included."""
        machine = Machine(seed=7)
        fuzzer = ClockFuzzer(machine, fuzz_cycles=3000, correlated=True)
        state = fuzzer._rng.bit_generator.state
        end, latencies = machine.l2.access_series(1, (), 8, 40)
        assert (end, latencies.size) == (40, 0)
        assert fuzzer._rng.bit_generator.state != state


#: One installer per mitigation kind, by the hook it sets.
INSTALLERS = {
    "throttle": lambda machine: apply_bus_lock_throttle(machine),
    "fuzzer": lambda machine: apply_clock_fuzzing(machine),
    "partition": lambda machine: partition_cache_ways(machine, (0, 2)),
}


class TestDeclaredHooks:
    """Mitigations set the hooks their resources declare, one of a kind
    at a time, and patch no resource method."""

    @pytest.mark.parametrize("kind", sorted(INSTALLERS))
    def test_second_of_a_kind_raises(self, kind):
        machine = Machine(seed=1)
        INSTALLERS[kind](machine)
        with pytest.raises(ConfigError, match="already"):
            INSTALLERS[kind](machine)

    @pytest.mark.parametrize("kind", sorted(INSTALLERS))
    def test_remove_lets_a_new_one_install(self, kind):
        machine = Machine(seed=1)
        first = INSTALLERS[kind](machine)
        first.remove()
        second = INSTALLERS[kind](machine)
        first.remove()  # a stale remove() leaves the new one installed
        hooked = [r for r in (machine.bus, machine.l2) if hasattr(r, kind)]
        assert hooked
        assert all(getattr(r, kind) is second for r in hooked)

    def test_no_instance_attribute_shadows_a_method(self):
        machine = Machine(seed=1)

        def shadowed():
            return {
                name
                for resource in (machine.bus, machine.l2)
                for name in vars(resource)
                if callable(getattr(type(resource), name, None))
            }

        mitigations = [install(machine) for install in INSTALLERS.values()]
        assert shadowed() == set()
        for mitigation in mitigations:
            mitigation.remove()
        assert shadowed() == set()
        assert machine.bus.throttle is machine.bus.fuzzer is None
        assert machine.l2.partition is machine.l2.fuzzer is None
