"""Property tests: every batch kernel ≡ its scalar reference, exactly.

The vectorized hot path (bloom batch probes, the tracker's deferred-check
replay, the members-based generation advance, the cache's batched
``access_series``) is only admissible because it is *bit-identical* to
the scalar protocol — identical false-positive sets, not just rates.
Hypothesis drives arbitrary key columns, filter geometries, interleaved
access/replacement/check sequences and access series through both
implementations and diffs complete final states. The cache's reference
is its per-access loop, forced by making ``_use_batch_kernel()`` return
``False`` on that instance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.hardware.bloom import (
    BloomFilter,
    hash_indices_batch,
    probe_positions,
)
from repro.hardware.conflict_tracker import GenerationConflictTracker
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache

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


class TestAccessSeriesEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(chunks=st.lists(SERIES, max_size=4), jitter=st.sampled_from((0, 3)))
    def test_vectorized_matches_legacy_including_jitter(self, chunks, jitter):
        def build(batch):
            config = CacheConfig(size_bytes=8 * 1024)  # 16 sets x 8 ways
            tracker = GenerationConflictTracker(
                config.n_sets * config.associativity
            )
            tap = LabeledEventTap("prop")
            cache = SharedCache(
                config,
                tracker,
                tap,
                np.random.default_rng(77),
                latency_jitter=jitter,
            )
            if not batch:
                cache._use_batch_kernel = lambda: False
            return cache, tap

        vec, tap_vec = build(True)
        leg, tap_leg = build(False)
        t_vec = t_leg = 0
        for chunk in chunks:
            t_vec, lat_vec = vec.access_series(0, tuple(chunk), 8, t_vec)
            t_leg, lat_leg = leg.access_series(0, tuple(chunk), 8, t_leg)
            assert lat_vec.tolist() == lat_leg.tolist()
            assert t_vec == t_leg
        assert vec._jitter_idx == leg._jitter_idx
        assert (vec.hits, vec.misses, vec.conflict_misses) == (
            leg.hits,
            leg.misses,
            leg.conflict_misses,
        )
        for a, b in zip(tap_vec.records(), tap_leg.records()):
            assert a.tolist() == b.tolist()
        assert _tracker_state(vec.tracker) == _tracker_state(leg.tracker)
