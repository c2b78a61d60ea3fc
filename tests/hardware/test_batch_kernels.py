"""Property tests: every batch kernel ≡ its scalar reference, exactly.

The vectorized hot path (bloom batch probes, the tracker's deferred-check
replay, the members-based generation advance, the cache's batched
``access_series``) is only admissible because it is *bit-identical* to
the scalar protocol — identical false-positive sets, not just rates.
Hypothesis drives arbitrary key columns, filter geometries, interleaved
access/replacement/check sequences and access series through both
implementations and diffs complete final states. The cache's reference
is :mod:`tests.sim.cache_reference`, one :meth:`SharedCache.access` call
per element, called directly; way-partitioned caches are compared the
same way.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.hardware.bloom import (
    BloomFilter,
    hash_indices_batch,
    probe_positions,
)
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.mitigation.partition import _WayPartition
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache
from tests.sim.cache_reference import (
    access_series_per_access,
    counted_access_calls,
    random_traffic_per_access,
)

KEYS = st.lists(st.integers(0, 2**50), max_size=120)
GEOMETRY = st.tuples(
    st.sampled_from((64, 257, 1024, 4096)),  # n_bits incl. non-power-of-2
    st.integers(1, 5),  # n_hashes
)


class TestBloomBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(keys=KEYS, geometry=GEOMETRY)
    def test_hash_indices_batch_matches_probe_positions(self, keys, geometry):
        n_bits, n_hashes = geometry
        batch = hash_indices_batch(keys, n_bits, n_hashes)
        assert batch.shape == (len(keys), n_hashes)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == probe_positions(key, n_bits, n_hashes)

    @settings(max_examples=60, deadline=None)
    @given(keys=KEYS, geometry=GEOMETRY)
    def test_add_batch_matches_scalar_add(self, keys, geometry):
        n_bits, n_hashes = geometry
        scalar = BloomFilter(n_bits, n_hashes)
        batch = BloomFilter(n_bits, n_hashes)
        for key in keys:
            scalar.add(key)
        batch.add_batch(keys)
        assert scalar._words == batch._words
        assert scalar.insertions == batch.insertions

    @settings(max_examples=60, deadline=None)
    @given(
        inserted=KEYS,
        probed=st.lists(st.integers(0, 2**50), max_size=120),
        geometry=GEOMETRY,
    )
    def test_contains_batch_matches_scalar_contains(
        self, inserted, probed, geometry
    ):
        n_bits, n_hashes = geometry
        bloom = BloomFilter(n_bits, n_hashes)
        bloom.add_batch(inserted)
        batch = bloom.contains_batch(probed)
        # Identical false-positive *set*, not merely rate: each probe's
        # batch answer equals the scalar packed-word walk.
        assert batch.tolist() == [bloom.contains(key) for key in probed]

    def test_batch_word_wrap_matches_scalar_mask(self):
        # Keys at and beyond 2**64 exercise the uint64 wraparound that
        # must equal the scalar pipeline's ``& _MASK64``.
        keys = [2**64 - 1, 2**63, 123456789123456789]
        batch = hash_indices_batch(keys, 4096, 3)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == probe_positions(key, 4096, 3)


def _tracker_state(tracker):
    return (
        tracker._current,
        tracker._accessed_in_current,
        tracker.generation_advances,
        dict(tracker._gen_bits),
        [set(m) for m in tracker._members],
        [list(b._words) for b in tracker._blooms],
    )


#: Interleaved op streams: (op, key) with op 0=access 1=replace 2=check.
OPS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 40)), max_size=150
)


class TestReplayCheckBatch:
    """The deferred-check replay ≡ interleaved scalar check/insert/clear."""

    @settings(max_examples=80, deadline=None)
    @given(ops=OPS, capacity=st.integers(4, 48))
    def test_replay_matches_interleaved_scalar(self, ops, capacity):
        # Reference: scalar ops in series order against one tracker.
        reference = GenerationConflictTracker(capacity)
        # Replayed: identical advance schedule, but checks answered
        # post-hoc from logs — mirroring the cache's fused kernel.
        replayed = GenerationConflictTracker(capacity)
        generations = replayed.generations
        snapshot = [list(b._words) for b in replayed._blooms]
        ins_pos = [[] for _ in range(generations)]
        ins_keys = [[] for _ in range(generations)]
        clears = []
        cand_pos, cand_keys = [], []
        scalar_answers = []
        for i, (op, key) in enumerate(ops):
            if op == 0:
                before = reference.generation_advances
                reference.on_access(key)
                replayed.on_access(key)
                if reference.generation_advances != before:
                    clears.append((i, reference._current))
            elif op == 1:
                latest = reference.latest_generation_of(key)
                reference.on_replacement(key)
                if latest is not None:
                    ins_pos[latest].append(i)
                    ins_keys[latest].append(key)
                    # Keep the replayed tracker's generation bits in step
                    # without touching its blooms (the kernel defers them).
                    del replayed._gen_bits[key]
                else:
                    replayed._gen_bits.pop(key, None)
            else:
                scalar_answers.append(reference.check_recent_eviction(key))
                cand_pos.append(i)
                cand_keys.append(key)
        verdict = replayed.replay_check_batch(
            len(ops), cand_pos, cand_keys, ins_pos, ins_keys, clears,
            snapshot,
        )
        assert verdict.tolist() == scalar_answers

    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_replay_from_warm_snapshot(self, ops):
        # A non-empty snapshot: pre-populate the blooms, then replay.
        reference = GenerationConflictTracker(32)
        for key in range(0, 20, 2):
            reference.on_access(key)
            reference.on_replacement(key)
        snapshot = [list(b._words) for b in reference._blooms]
        generations = reference.generations
        ins_pos = [[] for _ in range(generations)]
        ins_keys = [[] for _ in range(generations)]
        clears = []
        cand_pos, cand_keys, scalar_answers = [], [], []
        for i, (op, key) in enumerate(ops):
            if op == 0:
                before = reference.generation_advances
                reference.on_access(key)
                if reference.generation_advances != before:
                    clears.append((i, reference._current))
            elif op == 1:
                latest = reference.latest_generation_of(key)
                reference.on_replacement(key)
                if latest is not None:
                    ins_pos[latest].append(i)
                    ins_keys[latest].append(key)
            else:
                scalar_answers.append(reference.check_recent_eviction(key))
                cand_pos.append(i)
                cand_keys.append(key)
        verdict = reference.replay_check_batch(
            len(ops), cand_pos, cand_keys, ins_pos, ins_keys, clears,
            snapshot,
        )
        assert verdict.tolist() == scalar_answers


class TestAdvanceGenerationMembers:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS, capacity=st.integers(4, 64))
    def test_members_advance_matches_full_walk_reference(self, ops, capacity):
        """The O(generation) advance ≡ walking every resident block."""
        fast = GenerationConflictTracker(capacity)

        class FullWalk(GenerationConflictTracker):
            def _advance_generation(self):
                new_gen = (self._current + 1) % self.generations
                cleared_bit = ~(1 << new_gen)
                for key in list(self._gen_bits):
                    remaining = self._gen_bits[key] & cleared_bit
                    if remaining:
                        self._gen_bits[key] = remaining
                    else:
                        del self._gen_bits[key]
                self._members[new_gen] = set()
                self._blooms[new_gen].clear()
                self._current = new_gen
                self._accessed_in_current = 0
                self.generation_advances += 1

        reference = FullWalk(capacity)
        for op, key in ops:
            for tracker in (fast, reference):
                if op == 0:
                    tracker.on_access(key)
                elif op == 1:
                    tracker.on_replacement(key)
                else:
                    tracker.check_recent_eviction(key)
        assert fast._current == reference._current
        assert fast._gen_bits == reference._gen_bits
        assert fast._accessed_in_current == reference._accessed_in_current
        assert [b._words for b in fast._blooms] == [
            b._words for b in reference._blooms
        ]


#: Access rows (set, tag) over a tiny cache so evictions are frequent.
SERIES = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 11)), max_size=120
)

#: Four contexts in three way groups of a 16-set, 8-way cache.
PARTITION = ({0: 0, 1: 1, 2: 2, 3: 2}, {0: 2, 1: 2, 2: 4})

#: Mixed operations for partitioned runs: a series, or noise traffic of
#: ``count`` accesses over 16 tags, both by one of the four contexts.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("series"), st.integers(0, 3), SERIES),
        st.tuples(st.just("traffic"), st.integers(0, 3), st.integers(0, 80)),
    ),
    max_size=6,
)


def _small_cache(tracker_factory=GenerationConflictTracker, jitter=3):
    config = CacheConfig(size_bytes=8 * 1024)  # 16 sets x 8 ways
    tracker = tracker_factory(config.n_sets * config.associativity)
    tap = LabeledEventTap("prop")
    cache = SharedCache(
        config, tracker, tap, np.random.default_rng(77), latency_jitter=jitter
    )
    return cache, tap


def _any_tracker_state(tracker):
    if isinstance(tracker, GenerationConflictTracker):
        return _tracker_state(tracker)
    return list(tracker._stack._stack)


def _cache_state(cache, tap):
    return (
        (cache.hits, cache.misses, cache.conflict_misses),
        cache._jitter_idx,
        [a.tolist() for a in tap.records()],
        [list(s.items()) for s in cache._sets],
        _any_tracker_state(cache.tracker),
    )


def _run_ops(cache, ops, per_access):
    """Apply ``ops``; returns every latency column and end time."""
    if per_access:
        series = partial(access_series_per_access, cache)
        traffic = partial(random_traffic_per_access, cache)
    else:
        series, traffic = cache.access_series, cache.random_traffic
    outputs = []
    t = 0
    for op, ctx, arg in ops:
        if op == "series":
            t, lat = series(ctx, tuple(arg), 8, t)
            outputs.append((lat.tolist(), t))
        else:
            t = traffic(ctx, t, 10_000, arg, tag_space=16)
            outputs.append(t)
    return outputs


def _compare_per_access(ops, tracker_factory=GenerationConflictTracker,
                        jitter=3, partitioned=False):
    """Run ``ops`` batched and per access on twin caches; assert identical
    outputs and states, and that only the reference calls ``access``.
    Returns the twins' ``cross_group_evictions_prevented`` when
    ``partitioned``: the partition is installed over :func:`_warm_fills`.
    """
    twins = []
    for per_access in (False, True):
        cache, tap = _small_cache(tracker_factory, jitter)
        partition = None
        if partitioned:
            _warm_fills(cache)
            partition = _WayPartition(cache, *PARTITION)
        before = cache.hits + cache.misses
        with counted_access_calls() as calls:
            outputs = _run_ops(cache, ops, per_access)
        expected_calls = cache.hits + cache.misses - before if per_access else 0
        assert calls[0] == expected_calls
        twins.append((outputs, _cache_state(cache, tap), partition))
    (out_batch, state_batch, p_batch), (out_ref, state_ref, p_ref) = twins
    assert out_batch == out_ref
    assert state_batch == state_ref
    if partitioned:
        prevented = p_batch.cross_group_evictions_prevented
        assert prevented == p_ref.cross_group_evictions_prevented
        return prevented
    return None


def _warm_fills(cache):
    """Unpartitioned fills: context 3 fills every way of sets 0..7 and
    context 1 half the ways of sets 8..15, so once partitioned, groups 0
    and 1 find sets full of another group's blocks."""
    cache.access_series(
        3, [(s, 500 + w) for s in range(8) for w in range(8)], 8, 0
    )
    cache.access_series(
        1, [(s, 600 + w) for s in range(8, 16) for w in range(4)], 8, 0
    )


class TestAccessSeriesEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(chunks=st.lists(SERIES, max_size=4), jitter=st.sampled_from((0, 3)))
    def test_vectorized_matches_legacy_including_jitter(self, chunks, jitter):
        ops = [("series", 0, chunk) for chunk in chunks]
        _compare_per_access(ops, jitter=jitter)

    @pytest.mark.parity
    @pytest.mark.parametrize(
        "tracker_factory",
        (GenerationConflictTracker, IdealLRUConflictTracker),
        ids=("generation", "ideal-lru"),
    )
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_partitioned_matches_per_access(self, tracker_factory, ops):
        """Partitioned ``access_series`` and ``random_traffic`` ≡ one
        partitioned ``access`` call per element, installed over
        unpartitioned warm-up fills so the over-budget eviction runs."""
        _compare_per_access(ops, tracker_factory, partitioned=True)

    @pytest.mark.parity
    def test_partitioned_over_budget_evictions(self):
        """Deterministic case: squeezed groups evict across groups."""
        ops = [
            ("series", 0, [(s, 700 + k) for s in range(16) for k in range(3)]),
            ("traffic", 2, 200),
            ("series", 1, [(s, 800 + k) for s in range(16) for k in range(3)]),
        ]
        assert _compare_per_access(ops, partitioned=True) > 0
