"""Property tests: every batch kernel ≡ its scalar reference, exactly.

The vectorized hot path (bloom batch probes, the cache's walk and the
tracker's settle behind ``access_series`` and ``random_traffic``) is
only admissible because it is *bit-identical* to the scalar protocol —
identical false-positive sets, not just rates. Hypothesis drives
arbitrary key columns, filter geometries and access series through both
implementations and diffs complete final states, settled. The cache's
reference is :mod:`tests.sim.cache_reference`, one per-access ``access``
call per element, called directly, over the dict-based generation
tracker; way-partitioned caches are compared the same way. The settle's
parity with the earlier trackers is :mod:`tests.hardware.test_settle_parity`.
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
from repro.hardware.conflict_tracker import GenerationConflictTracker
from repro.mitigation.partition import _WayPartition
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache
from tests.hardware.test_settle_parity import cache_observables
from tests.sim.cache_reference import (
    TRACKER_PAIRS,
    PerAccessCache,
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
    def test_add_sets_the_union_of_batch_probes(self, keys, geometry):
        n_bits, n_hashes = geometry
        bloom = BloomFilter(n_bits, n_hashes)
        for key in keys:
            bloom.add(key)
        expected = np.zeros(n_bits, dtype=bool)
        expected[hash_indices_batch(keys, n_bits, n_hashes).ravel()] = True
        assert bloom.bits.tolist() == expected.tolist()
        assert bloom.insertions == len(keys)

    @settings(max_examples=60, deadline=None)
    @given(
        inserted=KEYS,
        probed=st.lists(st.integers(0, 2**50), max_size=120),
        geometry=GEOMETRY,
    )
    def test_contains_iff_batch_probes_all_set(self, inserted, probed, geometry):
        n_bits, n_hashes = geometry
        bloom = BloomFilter(n_bits, n_hashes)
        for key in inserted:
            bloom.add(key)
        probes = hash_indices_batch(probed, n_bits, n_hashes)
        # Identical false-positive *set*, not merely rate: each scalar
        # answer equals the batch probes read off the bit column.
        expected = bloom.bits[probes.astype(np.int64)].all(axis=1)
        assert [bloom.contains(key) for key in probed] == expected.tolist()

    def test_batch_word_wrap_matches_scalar_mask(self):
        # Keys at and beyond 2**64 exercise the uint64 wraparound that
        # must equal the scalar pipeline's ``& _MASK64``.
        keys = [2**64 - 1, 2**63, 123456789123456789]
        batch = hash_indices_batch(keys, 4096, 3)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == probe_positions(key, 4096, 3)


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


def _small_cache(tracker_factory=GenerationConflictTracker, jitter=3,
                 cls=SharedCache):
    config = CacheConfig(size_bytes=8 * 1024)  # 16 sets x 8 ways
    tracker = tracker_factory(config.n_sets * config.associativity)
    tap = LabeledEventTap("prop")
    return cls(
        config, tracker, tap, np.random.default_rng(77), latency_jitter=jitter
    )


def _cache_state(cache):
    cache.settle()
    return cache_observables(cache)


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


def _compare_per_access(ops, trackers=TRACKER_PAIRS[0], jitter=3,
                        partitioned=False):
    """Run ``ops`` batched and per access on twin caches, over the
    ``(batch, reference)`` pair of tracker classes ``trackers``; assert
    identical outputs and states, and that only the reference calls
    ``access``. Returns the twins' ``cross_group_evictions_prevented``
    when ``partitioned``: the partition is installed over
    :func:`_warm_fills`.
    """
    twins = []
    for per_access, tracker_factory in zip((False, True), trackers):
        cls = PerAccessCache if per_access else SharedCache
        cache = _small_cache(tracker_factory, jitter, cls)
        partition = None
        if partitioned:
            _warm_fills(cache)
            partition = _WayPartition(cache, *PARTITION)
        before = cache.hits + cache.misses
        with counted_access_calls() as calls:
            outputs = _run_ops(cache, ops, per_access)
        expected_calls = cache.hits + cache.misses - before if per_access else 0
        assert calls[0] == expected_calls
        twins.append((outputs, _cache_state(cache), partition))
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
        "trackers", TRACKER_PAIRS, ids=("generation", "ideal-lru")
    )
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_partitioned_matches_per_access(self, trackers, ops):
        """Partitioned ``access_series`` and ``random_traffic`` ≡ one
        partitioned ``access`` call per element, installed over
        unpartitioned warm-up fills so the over-budget eviction runs."""
        _compare_per_access(ops, trackers, partitioned=True)

    @pytest.mark.parity
    def test_partitioned_over_budget_evictions(self):
        """Deterministic case: squeezed groups evict across groups."""
        ops = [
            ("series", 0, [(s, 700 + k) for s in range(16) for k in range(3)]),
            ("traffic", 2, 200),
            ("series", 1, [(s, 800 + k) for s in range(16) for k in range(3)]),
        ]
        assert _compare_per_access(ops, partitioned=True) > 0
