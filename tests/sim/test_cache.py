"""Tests for the shared L2 cache and conflict-miss event generation."""

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SETTLE_ACCESSES, SharedCache, block_key
from repro.util.rng import make_rng
from tests.hardware.test_settle_parity import column_state
from tests.sim.cache_reference import PerAccessCache
from tests.sim.tap_reference import recorded_records


def make_cache(n_sets=8, assoc=2, cls=SharedCache):
    config = CacheConfig(
        size_bytes=n_sets * assoc * 64,
        line_bytes=64,
        associativity=assoc,
        hit_latency=20,
        miss_latency=200,
    )
    tracker = IdealLRUConflictTracker(config.n_blocks)
    cache = cls(
        config, tracker, LabeledEventTap("miss"), make_rng(0), latency_jitter=0
    )
    return cache


def access(cache, ctx, set_index, tag, time):
    """One access as a one-element series, settled: ``(latency, hit)``."""
    hits = cache.hits
    _end, latencies = cache.access_series(ctx, ((set_index, tag),), 0, time)
    cache.settle()
    return int(latencies[0]), cache.hits > hits


class TestBasicAccess:
    def test_first_access_misses(self):
        cache = make_cache()
        latency, hit = access(cache, ctx=0, set_index=0, tag=1, time=0)
        assert not hit
        assert latency == 200

    def test_second_access_hits(self):
        cache = make_cache()
        access(cache, 0, 0, 1, 0)
        latency, hit = access(cache, 0, 0, 1, 10)
        assert hit
        assert latency == 20

    def test_lru_eviction_order(self):
        cache = make_cache(assoc=2)
        access(cache, 0, 0, 1, 0)
        access(cache, 0, 0, 2, 1)
        access(cache, 0, 0, 1, 2)   # refresh tag 1
        access(cache, 0, 0, 3, 3)   # evicts tag 2 (LRU)
        assert cache.resident_tags(0) == (1, 3)

    def test_bad_set_index(self):
        cache = make_cache(n_sets=8)
        with pytest.raises(SimulationError):
            access(cache, 0, 8, 1, 0)

    def test_owner_tracks_last_accessor(self):
        cache = make_cache()
        access(cache, 0, 0, 1, 0)
        assert cache.owner_of(0, 1) == 0
        access(cache, 3, 0, 1, 5)
        assert cache.owner_of(0, 1) == 3

    def test_occupancy(self):
        cache = make_cache(n_sets=4, assoc=2)
        for tag in range(3):
            access(cache, 0, 0, tag, tag)  # one set overflows at 3rd
        assert cache.occupancy == 2

    def test_flush(self):
        cache = make_cache()
        access(cache, 0, 0, 1, 0)
        cache.flush()
        assert cache.occupancy == 0
        _, hit = access(cache, 0, 0, 1, 10)
        assert not hit


class TestConflictEvents:
    def test_pingpong_generates_labeled_conflicts(self):
        """Re-fetching a prematurely evicted block is a conflict miss with
        (replacer, victim-owner) labels."""
        cache = make_cache(n_sets=8, assoc=2)
        # ctx 0 owns tags 1, 2 in set 0 (set full).
        access(cache, 0, 0, 1, 0)
        access(cache, 0, 0, 2, 1)
        # ctx 1 inserts tag 3: evicts tag 1 (no conflict: 3 never seen).
        access(cache, 1, 0, 3, 2)
        assert cache.miss_tap.count == 0
        # ctx 0 re-fetches tag 1: recently evicted -> conflict, victim is
        # the evicted block's owner (ctx 0's tag 2... LRU order: 2, 3).
        access(cache, 0, 0, 1, 3)
        assert cache.miss_tap.count == 1
        _, reps, vics = recorded_records(cache.miss_tap)
        assert reps.tolist() == [0]

    def test_cold_misses_not_conflicts(self):
        cache = make_cache()
        for tag in range(10):
            access(cache, 0, tag % 8, tag, tag)
        assert cache.conflict_misses == 0

    def test_no_event_without_eviction(self):
        """A conflict-classified fill into a non-full set records no event
        (there is no victim)."""
        cache = make_cache(n_sets=2, assoc=2)
        access(cache, 0, 0, 1, 0)
        access(cache, 0, 0, 2, 1)
        access(cache, 0, 0, 3, 2)   # evicts 1
        access(cache, 0, 1, 9, 3)   # other set
        # Re-access 1 -> conflict classified, set 0 full -> event recorded.
        before = cache.miss_tap.count
        access(cache, 0, 0, 1, 4)
        assert cache.miss_tap.count == before + 1


class TestAccessSeries:
    def test_series_advances_time(self):
        cache = make_cache()
        end, latencies = cache.access_series(
            0, [(0, 1), (1, 2), (0, 1)], gap=8, start=100
        )
        assert latencies.tolist() == [200, 200, 20]
        assert end == 100 + (200 + 8) * 2 + (20 + 8)

    def test_series_empty_latencies_shape(self):
        cache = make_cache()
        _, latencies = cache.access_series(0, [(0, 5)], gap=0, start=0)
        assert latencies.shape == (1,)

    @pytest.mark.parametrize(
        "accesses",
        (
            [(0, 1, 7), (1, 2, 7)],
            [(0.0, 1.7), (1.0, 2.0)],
            np.array([[0, 1], [1, 2]], dtype=np.float64),
            [0, 1, 1, 2],
            [(3, (1 << 44) + 5)],
            [(3, 1 << 43)],
            [(0, 1), (3, -1)],
        ),
        ids=(
            "three-columns", "float-tags", "float-array", "flat-list",
            "tag-aliasing-a-smaller-one", "tag-beyond-key-width",
            "negative-tag",
        ),
    )
    def test_malformed_series_refused_before_any_access(self, accesses):
        """Rows that are not integer (set, tag) pairs with tags that fit a
        block key raise ``SimulationError`` and touch nothing."""
        cache = make_cache()
        with pytest.raises(SimulationError):
            cache.access_series(0, accesses, gap=8, start=0)
        cache.settle()
        assert (cache.hits, cache.misses, cache.occupancy) == (0, 0, 0)
        assert cache.miss_tap.count == 0

    def test_widest_tag_keeps_its_own_block_key(self):
        """The largest tag a block key holds is accepted, and its key
        differs from every other tag's in the set."""
        cache = make_cache()
        widest = (1 << 43) - 1
        cache.access_series(0, [(3, widest), (3, 5)], gap=8, start=0)
        assert cache.resident_tags(3) == (widest, 5)
        assert block_key(3, widest) != block_key(3, 5)
        assert block_key(3, widest) < 1 << 63


class TestRandomTraffic:
    def test_count_and_range(self):
        cache = make_cache(n_sets=8, assoc=2)
        cache.random_traffic(
            ctx=2, start=0, duration=100_000, count=500, set_lo=2, set_hi=6
        )
        assert cache.hits + cache.misses == 500
        for s in (0, 1, 6, 7):
            assert cache.resident_tags(s) == ()

    def test_bad_range(self):
        cache = make_cache(n_sets=8)
        with pytest.raises(SimulationError):
            cache.random_traffic(0, 0, 100, 10, set_lo=5, set_hi=3)

    @pytest.mark.parametrize(
        "ctx, tag_space",
        ((0, 0), (0, -4), (2, (1 << 43) - 3_000_000 + 1)),
        ids=("empty", "negative", "beyond-key-width"),
    )
    def test_bad_tag_space(self, ctx, tag_space):
        """A tag space that is empty, or whose tags would not fit a block
        key, is refused before any draw or access."""
        cache = make_cache(n_sets=8)
        state = cache._rng.bit_generator.state
        with pytest.raises(SimulationError):
            cache.random_traffic(ctx, 0, 100, 10, tag_space=tag_space)
        assert cache._rng.bit_generator.state == state
        assert cache.hits + cache.misses == 0

    def test_zero_count_noop(self):
        cache = make_cache()
        end = cache.random_traffic(0, 0, 1000, 0)
        assert end == 1000
        assert cache.misses == 0


class TestSettle:
    """Series calls classify conflicts when the log is settled."""

    PINGPONG = [(0, 1), (0, 2), (0, 3), (0, 1), (0, 2)]

    def test_series_conflicts_wait_for_settle(self):
        cache = make_cache(n_sets=8, assoc=2)
        cache.access_series(0, self.PINGPONG, gap=8, start=0)
        assert (cache.hits, cache.misses) == (0, 5)
        assert cache.conflict_misses == 0 and cache.miss_tap.count == 0
        cache.settle()
        assert cache.conflict_misses == cache.miss_tap.count == 2
        cache.settle()  # an empty log settles to nothing
        assert cache.miss_tap.count == 2

    def test_flush_keeps_conflicts_logged_before_it(self):
        cache = make_cache(n_sets=8, assoc=2)
        cache.access_series(0, self.PINGPONG, gap=8, start=0)
        cache.flush()
        assert (cache.hits, cache.misses, cache.conflict_misses) == (0, 0, 0)
        assert cache.miss_tap.count == 2
        assert cache.occupancy == 0

    def test_scalar_access_settles_first(self):
        """The per-access reference settles a pending log before its own
        access, so mixed workloads keep log order."""
        cache = make_cache(n_sets=8, assoc=2, cls=PerAccessCache)
        cache.access_series(0, self.PINGPONG[:3], gap=8, start=0)
        cache.access(1, 0, 1, 100)  # re-fetches tag 1, evicted in the log
        assert cache.conflict_misses == 1
        assert recorded_records(cache.miss_tap)[1].tolist() == [1]

    def test_long_series_settles_itself(self):
        cache = make_cache(n_sets=8, assoc=2)
        accesses = [(i % 4, i % 12) for i in range(SETTLE_ACCESSES)]
        cache.access_series(0, accesses, gap=0, start=0)
        assert cache.conflict_misses > 0
        assert cache.conflict_misses == cache.miss_tap.count

    def test_failing_partition_leaves_the_log_as_it_was(self):
        """A ``partition`` hook that raises mid-series logs nothing of that
        series: the settle after it gives the tap, counters and tracker of
        a twin that never ran the series."""

        class LRUHook:
            """The unpartitioned victim rule; raises on call ``fail_at``."""

            fail_at = None
            calls = 0

            def victim(self, ctx, blocks):
                self.calls += 1
                if self.calls == self.fail_at:
                    raise RuntimeError("partition hook failed")
                if len(blocks) < 2:
                    return None, None
                tag = next(iter(blocks))
                return tag, blocks[tag]

        def run(fail):
            cache = make_cache(n_sets=4, assoc=2)
            cache.tracker = GenerationConflictTracker(64)
            cache.partition = hook = LRUHook()
            fills = [(s, t) for t in range(4) for s in range(4)]
            cache.access_series(0, fills, 8, 0)
            cache.access_series(1, fills[:12], 8, 500)
            if fail:
                # Calls 1-4 of the series evict, call 5 raises.
                hook.fail_at = hook.calls + 5
                misses = [(s % 4, 9 + s) for s in range(8)]
                with pytest.raises(RuntimeError):
                    cache.access_series(2, misses, 8, 900)
            cache.settle()
            times, replacers, victims = recorded_records(cache.miss_tap)
            return (
                (cache.hits, cache.misses, cache.conflict_misses),
                (times.tolist(), replacers.tolist(), victims.tolist()),
                column_state(cache.tracker),
            )

        failed, twin = run(True), run(False)
        assert failed == twin
        assert twin[0][2] > 0  # the earlier series logged conflicts

    def test_machine_settles_before_run_quanta_returns(self):
        """After ``run_quanta`` the tap holds every conflict, with no
        explicit ``settle()``."""
        from repro.channels.base import ChannelConfig
        from repro.channels.cache import CacheCovertChannel
        from repro.sim.machine import Machine
        from repro.util.bitstream import Message

        machine = Machine(seed=4)
        channel = CacheCovertChannel(
            machine,
            ChannelConfig(message=Message.random(4, 4), bandwidth_bps=100.0),
            n_sets_total=32,
        )
        channel.deploy(trojan_ctx=0, spy_ctx=2)
        machine.run_quanta(1)
        l2 = machine.l2
        recorded = l2.miss_tap.count
        assert recorded == l2.conflict_misses > 0
        l2.settle()
        assert l2.miss_tap.count == recorded


def test_block_key_unique():
    keys = {block_key(s, t) for s in range(64) for t in range(64)}
    assert len(keys) == 64 * 64
