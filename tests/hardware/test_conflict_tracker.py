"""Tests for conflict-miss trackers: ideal oracle and generation design.

The generation tracker's only entry point is ``settle``. A scalar call
sequence that a cache log can express (per position: the miss's check,
the eviction of another block, then the access) runs through it as one
log. Sequences no log expresses (a replacement right after the same
key's access, with no access to carry it, and the approximation-quality
streams) run on the per-access dict tracker it replaced, kept verbatim
in :mod:`tests.hardware.tracker_reference` and proven equal to
``settle`` by :mod:`tests.hardware.test_settle_parity`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from tests.hardware.tracker_reference import DictGenerationConflictTracker


def settle(tracker, keys, evictions=(), checks=()):
    """Settle one log: ``keys`` accessed in order, ``evictions`` as
    ``(position, victim key)`` pairs, misses checked at ``checks``."""
    ev = np.array(evictions, dtype=np.int64).reshape(-1, 2)
    return tracker.settle(
        np.array(keys, dtype=np.int64),
        ev[:, 0],
        ev[:, 1],
        np.array(checks, dtype=np.int64),
    )


class TestIdealTracker:
    def test_recent_eviction_classified(self):
        tracker = IdealLRUConflictTracker(capacity=8)
        tracker.on_access(1)
        tracker.on_replacement(1)  # premature set-conflict eviction
        assert tracker.check_recent_eviction(1)

    def test_old_block_not_classified(self):
        tracker = IdealLRUConflictTracker(capacity=4)
        tracker.on_access(1)
        for key in range(10, 20):  # push key 1 off the shadow stack
            tracker.on_access(key)
        assert not tracker.check_recent_eviction(1)

    def test_never_seen_not_classified(self):
        tracker = IdealLRUConflictTracker(capacity=4)
        assert not tracker.check_recent_eviction(123)


class TestGenerationTracker:
    def test_recent_eviction_classified(self):
        tracker = DictGenerationConflictTracker(capacity=16)
        tracker.on_access(1)
        tracker.on_replacement(1)
        assert tracker.check_recent_eviction(1)

    def test_unreplaced_block_not_classified(self):
        tracker = GenerationConflictTracker(capacity=16)
        verdict = settle(tracker, [1, 1], checks=[1])
        assert not verdict[0]

    def test_generation_advance_on_threshold(self):
        tracker = GenerationConflictTracker(capacity=16, generations=4)
        assert tracker.threshold == 4
        settle(tracker, range(4))
        assert tracker.generation_advances == 1
        assert tracker.current_generation == 1

    def test_rehit_does_not_advance(self):
        tracker = GenerationConflictTracker(capacity=16)
        settle(tracker, [7] * 10)  # same block: one distinct access
        assert tracker.generation_advances == 0

    def test_old_generation_forgotten(self):
        """A tag evicted long ago (its generation recycled) is no longer a
        conflict candidate — the bounded-history approximation."""
        tracker = GenerationConflictTracker(capacity=16, generations=4)
        # Key 1 is evicted by the access after its own; then 4
        # generations' worth of fresh blocks (16 distinct) are touched.
        keys = [1, *range(100, 117), 1]
        verdict = settle(tracker, keys, evictions=[(1, 1)], checks=[18])
        assert not verdict[0]

    def test_latest_generation_of(self):
        tracker = GenerationConflictTracker(capacity=16, generations=4)
        settle(tracker, [1])
        assert tracker.latest_generation_of(1) == 0
        # Re-touch key 1 in generation 1.
        settle(tracker, [*range(100, 104), 1])
        assert tracker.latest_generation_of(1) == 1

    def test_metadata_bits(self):
        tracker = GenerationConflictTracker(capacity=4096)
        assert tracker.metadata_bits_per_block == 7  # 4 gen + 3 owner

    def test_clear(self):
        tracker = DictGenerationConflictTracker(capacity=16)
        tracker.on_access(1)
        tracker.on_replacement(1)
        tracker.clear()
        assert not tracker.check_recent_eviction(1)
        assert tracker.current_generation == 0

    def test_bad_capacity(self):
        with pytest.raises(HardwareError):
            GenerationConflictTracker(capacity=0)

    def test_bad_generations(self):
        with pytest.raises(HardwareError):
            GenerationConflictTracker(capacity=16, generations=1)


class TestApproximationQuality:
    """The practical tracker approximates the ideal LRU-stack oracle."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_agreement_on_random_workload(self, seed):
        rng = np.random.default_rng(seed)
        capacity = 64
        ideal = IdealLRUConflictTracker(capacity)
        practical = DictGenerationConflictTracker(capacity)
        # A re-use-heavy random access/evict stream over a small key space —
        # deliberately adversarial (churn near the capacity boundary, where
        # the generation approximation is coarsest). The trackers still
        # agree on a solid majority of classifications; on the structured
        # ping-pong pattern below they agree exactly.
        keys = rng.integers(0, 128, size=600)
        agree = 0
        total = 0
        for key in keys:
            key = int(key)
            verdict_i = ideal.check_recent_eviction(key)
            verdict_p = practical.check_recent_eviction(key)
            total += 1
            agree += verdict_i == verdict_p
            ideal.on_access(key)
            practical.on_access(key)
            if rng.random() < 0.3:
                ideal.on_replacement(key)
                practical.on_replacement(key)
        assert agree / total > 0.55

    def test_immediate_refetch_agreement(self):
        """Both trackers classify an evict-then-refetch ping-pong, the
        cache covert channel's access pattern."""
        for tracker in (
            IdealLRUConflictTracker(256),
            DictGenerationConflictTracker(256),
        ):
            for key in range(32):
                tracker.on_access(key)
            for round_ in range(3):
                for key in range(32):
                    tracker.on_replacement(key)
                    assert tracker.check_recent_eviction(key)
                    tracker.on_access(key)
