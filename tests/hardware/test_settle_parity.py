"""Exact-parity proof: the cache's walk and settle vs per-access tracking.

The shared cache walks LRU only and logs what the conflict tracker
needs; :meth:`GenerationConflictTracker.settle` classifies a whole log in
one vectorized pass over key-sorted columns. The references are kept
verbatim in :mod:`tests.hardware.tracker_reference`: the tracker from
before settling existed, driven per access through the per-access cache
of :mod:`tests.sim.cache_reference`, and the dict-based tracker from
before the columns, fed the same settle logs. Hypothesis draws cache and
tracker geometries small enough that several generation advances fall
inside one settle, and settles at random series boundaries, since
results must not depend on where settles fall. Latencies, counters,
conflict trains, LRU sets and the tracker's observables must match:
current generation, accessed-in-current, advances, bloom bits and
every resident block's latest generation; against the dict tracker, also
every block's last-touch epoch.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
    replay_log,
)
from repro.mitigation.partition import _WayPartition
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache, block_key
from tests.hardware import tracker_reference as ref
from tests.sim.cache_reference import (
    PerAccessCache,
    access_series_per_access,
    random_traffic_per_access,
)
from tests.sim.tap_reference import recorded_records

pytestmark = pytest.mark.parity

#: Cache and tracker geometry: tiny capacities, so thresholds of a few
#: touches put several advances inside one settle.
GEOMETRY = st.fixed_dictionaries(
    {
        "n_sets": st.sampled_from((1, 2, 4, 16)),
        "ways": st.integers(1, 8),
        "capacity": st.integers(2, 64),
        "generations": st.integers(2, 4),
        "bloom_bits": st.sampled_from((8, 13, 64, 100)),
        "hashes": st.integers(1, 3),
    }
)

#: Mixed operations: a series or noise traffic by one of four contexts,
#: or a settle between them (the per-access side has nothing to settle).
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("series"),
            st.integers(0, 3),
            st.lists(
                st.tuples(st.integers(0, 15), st.integers(0, 11)),
                max_size=60,
            ),
        ),
        st.tuples(st.just("traffic"), st.integers(0, 3), st.integers(0, 60)),
        st.tuples(st.just("settle"), st.just(0), st.just(0)),
    ),
    max_size=10,
)

#: Four contexts in three way groups of an 8-way cache.
PARTITION = ({0: 0, 1: 1, 2: 2, 3: 2}, {0: 2, 1: 2, 2: 4})


def _trackers(geometry):
    """``(settled, reference)`` generation trackers of one geometry."""
    args = dict(
        capacity=geometry["capacity"],
        generations=geometry["generations"],
        bloom_bits_per_generation=geometry["bloom_bits"],
        bloom_hashes=geometry["hashes"],
    )
    return (
        GenerationConflictTracker(**args),
        ref.GenerationConflictTracker(**args),
    )


def _cache(n_sets, ways, tracker, cls=SharedCache):
    config = CacheConfig(size_bytes=n_sets * ways * 64, associativity=ways)
    tap = LabeledEventTap("settle-parity")
    return cls(config, tracker, tap, np.random.default_rng(5))


def last_touch(tracker):
    """A generation tracker's block key -> last-touch epoch mapping."""
    if isinstance(tracker, ref.DictGenerationConflictTracker):
        return dict(tracker._last_touch)
    return dict(zip(tracker._keys.tolist(), tracker._epochs.tolist()))


def tracker_observables(cache):
    """What a tracker exposes: state a correct model must reproduce."""
    tracker = cache.tracker
    if isinstance(tracker, IdealLRUConflictTracker):
        return list(tracker._stack._stack)
    resident = [
        block_key(s, tag)
        for s, blocks in enumerate(cache._sets)
        for tag in blocks
    ]
    return (
        tracker.current_generation,
        tracker._accessed_in_current,
        tracker.generation_advances,
        [(b.bits.tolist(), b.insertions) for b in tracker._blooms],
        [tracker.latest_generation_of(key) for key in resident],
    )


def cache_observables(cache):
    times, replacers, victims = recorded_records(cache.miss_tap)
    return (
        (cache.hits, cache.misses, cache.conflict_misses),
        cache._jitter_idx,
        (times.tolist(), replacers.tolist(), victims.tolist()),
        [list(s.items()) for s in cache._sets],
        tracker_observables(cache),
    )


def _drive(cache, ops, per_access):
    """Apply ``ops``; returns the latency columns and end times."""
    n_sets = cache.config.n_sets
    if per_access:
        series = partial(access_series_per_access, cache)
        traffic = partial(random_traffic_per_access, cache)
    else:
        series, traffic = cache.access_series, cache.random_traffic
    outputs = []
    t = 0
    for op, ctx, arg in ops:
        if op == "settle":
            if not per_access:
                cache.settle()
        elif op == "series":
            accesses = tuple((s % n_sets, tag) for s, tag in arg)
            t, latencies = series(ctx, accesses, 8, t)
            outputs.append((latencies.tolist(), t))
        else:
            t = traffic(ctx, t, 10_000, arg, tag_space=16)
            outputs.append(t)
    cache.settle()
    return outputs


def _warm_fills(cache, per_access):
    """Unpartitioned fills by contexts 3 and 1, so once partitioned,
    groups 0 and 1 find sets full of another group's blocks."""
    series = (
        partial(access_series_per_access, cache)
        if per_access else cache.access_series
    )
    series(3, [(s, 500 + w) for s in range(8) for w in range(8)], 8, 0)
    series(1, [(s, 600 + w) for s in range(8, 16) for w in range(4)], 8, 0)


def assert_parity(make, ops, n_sets, ways, partitioned=False):
    """Walk and settle ≡ per-access ``access`` on twin caches.

    ``make()`` returns ``(settled tracker, reference tracker)``.
    """
    runs = []
    for per_access, tracker in zip((False, True), make()):
        cls = PerAccessCache if per_access else SharedCache
        cache = _cache(n_sets, ways, tracker, cls)
        if partitioned:
            _warm_fills(cache, per_access)
            partition = _WayPartition(cache, *PARTITION)
        outputs = _drive(cache, ops, per_access)
        extra = partition.cross_group_evictions_prevented if partitioned else 0
        runs.append((outputs, cache_observables(cache), extra))
    assert runs[0] == runs[1]
    return runs[0]


class TestWalkAndSettleParity:
    @settings(max_examples=120, deadline=None)
    @given(geometry=GEOMETRY, ops=OPS)
    def test_matches_reference_tracker(self, geometry, ops):
        assert_parity(
            partial(_trackers, geometry),
            ops,
            geometry["n_sets"],
            geometry["ways"],
        )

    @settings(max_examples=40, deadline=None)
    @given(geometry=GEOMETRY, ops=OPS)
    def test_partitioned_matches_reference_tracker(self, geometry, ops):
        assert_parity(partial(_trackers, geometry), ops, 16, 8, True)

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(2, 64),
        ops=OPS,
        partitioned=st.booleans(),
    )
    def test_ideal_tracker(self, capacity, ops, partitioned):
        def make():
            return (
                IdealLRUConflictTracker(capacity),
                IdealLRUConflictTracker(capacity),
            )

        assert_parity(make, ops, 16, 8, partitioned)

    def test_partitioned_cross_group_evictions(self):
        """Squeezed groups evict across groups; none of those counts."""
        ops = [
            ("series", 0, [(s, 700 + k) for s in range(16) for k in range(3)]),
            ("traffic", 2, 200),
            ("settle", 0, 0),
            ("series", 1, [(s, 800 + k) for s in range(16) for k in range(3)]),
        ]

        def make():
            return GenerationConflictTracker(128), ref.GenerationConflictTracker(128)

        _outputs, _state, prevented = assert_parity(make, ops, 16, 8, True)
        assert prevented > 0


def _one_set(accesses_by_settle):
    """A 1-set cache driven in series, settling between the groups."""
    ops = []
    for group in accesses_by_settle:
        ops.append(("series", 0, [(0, tag) for tag in group]))
        ops.append(("settle", 0, 0))
    return ops


class TestSettleCases:
    """Deterministic cases the log boundaries make delicate."""

    @staticmethod
    def _make(**args):
        return lambda: (
            GenerationConflictTracker(**args),
            ref.GenerationConflictTracker(**args),
        )

    def test_victim_carried_over_from_earlier_settle(self):
        # Tag 1's touch is settled; the next log evicts and re-fetches it.
        ops = _one_set([[1], [2, 3, 1]])
        _out, state, _ = assert_parity(self._make(capacity=64), ops, 1, 2)
        assert state[0][2] == 1  # the re-fetch of tag 1 is a conflict

    def test_evicted_and_refetched_within_one_settle(self):
        ops = _one_set([[1, 2, 3, 1, 2]])
        _out, state, _ = assert_parity(self._make(capacity=64), ops, 1, 2)
        assert state[0][2] == 2

    @pytest.mark.parametrize("generations, conflicts", ((2, 0), (3, 1)))
    def test_advance_triggered_by_the_evicting_access(
        self, generations, conflicts
    ):
        """With threshold 1 every fill advances. Filling tag 2 evicts
        tag 1 into the oldest live generation, then opens a generation:
        with two generations that clears tag 1's insert at once, with
        three it survives to classify the re-fetch."""
        ops = _one_set([[1, 2, 1]])
        _out, state, _ = assert_parity(
            self._make(capacity=generations, generations=generations),
            ops, 1, 1,
        )
        assert state[0][2] == conflicts
        assert state[4][2] == 3  # advances: one per fill


#: Tracker logs: per access its key, the victim it evicts (or none) and
#: whether the access's miss is checked.
LOG = st.lists(
    st.tuples(
        st.integers(0, 24),
        st.one_of(st.none(), st.integers(0, 24)),
        st.booleans(),
    ),
    max_size=150,
)


def _split(log, cuts):
    """The log as consecutive settle windows, cut at ``cuts``."""
    bounds = sorted({0, len(log), *(c % (len(log) + 1) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        window = log[lo:hi]
        keys = np.array([key for key, _v, _c in window], dtype=np.int64)
        ev = [(p, v) for p, (key, v, _c) in enumerate(window)
              if v is not None and v != key]
        ev_pos = np.array([p for p, _v in ev], dtype=np.int64)
        ev_keys = np.array([v for _p, v in ev], dtype=np.int64)
        cand_pos = np.array(
            [p for p, (_k, _v, checked) in enumerate(window) if checked],
            dtype=np.int64,
        )
        yield keys, ev_pos, ev_keys, cand_pos


def _scalar_state(tracker):
    return (
        tracker.current_generation,
        tracker._accessed_in_current,
        tracker.generation_advances,
        [(b.bits.tolist(), b.insertions) for b in tracker._blooms],
        [tracker.latest_generation_of(key) for key in range(25)],
    )


class TestTrackerSettle:
    @settings(max_examples=150, deadline=None)
    @given(
        log=LOG,
        cuts=st.lists(st.integers(0, 150), max_size=4),
        capacity=st.integers(2, 40),
        generations=st.integers(2, 4),
        bits=st.sampled_from((8, 64, 100)),
    )
    def test_settle_matches_scalar_methods(
        self, log, cuts, capacity, generations, bits
    ):
        """``settle`` ≡ the same log through the scalar protocol, of both
        the dict tracker and the pre-settle one, wherever the windows are
        cut."""
        args = dict(capacity=capacity, generations=generations,
                    bloom_bits_per_generation=bits)
        settled = GenerationConflictTracker(**args)
        scalar = ref.DictGenerationConflictTracker(**args)
        reference = ref.GenerationConflictTracker(**args)
        for window in _split(log, cuts):
            verdict = settled.settle(*window)
            assert verdict.tolist() == replay_log(scalar, *window).tolist()
            assert verdict.tolist() == replay_log(reference, *window).tolist()
            assert _scalar_state(settled) == _scalar_state(scalar)
            assert _scalar_state(settled) == _scalar_state(reference)

    def test_empty_log(self):
        tracker = GenerationConflictTracker(16)
        empty = np.zeros(0, dtype=np.int64)
        assert tracker.settle(empty, empty, empty, empty).size == 0
        assert tracker.generation_advances == 0


#: Block keys: small ones, and ones from 2^40 up to the int64 maximum.
#: A window holding a key of 2^61 or more leaves the packed (key,
#: position) sort no room, so ``_key_position_order`` takes its lexsort
#: branch.
BIG_KEYS = (1 << 40, (1 << 40) + 3, 1 << 53, (1 << 62) + 5, (1 << 63) - 1)
WIDE_KEY = st.one_of(st.integers(0, 24), st.sampled_from(BIG_KEYS))

#: Logs over the wide keys, shaped like :data:`LOG`.
WIDE_LOG = st.lists(
    st.tuples(WIDE_KEY, st.one_of(st.none(), WIDE_KEY), st.booleans()),
    max_size=150,
)


_EMPTY = np.zeros(0, dtype=np.int64)


def _windows(log, cuts):
    """Like :func:`_split`, but equal cuts leave empty windows."""
    bounds = sorted([0, len(log), *(c % (len(log) + 1) for c in cuts)])
    for lo, hi in zip(bounds, bounds[1:]):
        yield from _split(log[lo:hi], ()) if hi > lo else [(_EMPTY,) * 4]


def _column_state(tracker):
    """Everything a settle leaves behind, for either generation tracker."""
    return (
        last_touch(tracker),
        tracker._epoch,
        tracker._accessed_in_current,
        tracker.generation_advances,
        [(b.bits.tolist(), b.insertions) for b in tracker._blooms],
    )


class TestColumnsMatchDict:
    """The key-sorted columns ≡ the dict tracker they replaced."""

    @settings(max_examples=120, deadline=None)
    @given(
        log=WIDE_LOG,
        cuts=st.lists(st.integers(0, 150), max_size=5),
        clears=st.sets(st.integers(0, 6), max_size=2),
        capacity=st.integers(2, 40),
        generations=st.integers(2, 4),
        bits=st.sampled_from((8, 64, 100)),
        hashes=st.integers(1, 3),
    )
    def test_settle_matches_dict_tracker(
        self, log, cuts, clears, capacity, generations, bits, hashes
    ):
        """Both settle the same windows, with ``clear()`` before some:
        same verdicts, and after each settle the same key -> epoch
        mapping, epoch, accessed-in-current, advances and bloom bits
        and insertions."""
        args = dict(capacity=capacity, generations=generations,
                    bloom_bits_per_generation=bits, bloom_hashes=hashes)
        columns = GenerationConflictTracker(**args)
        reference = ref.DictGenerationConflictTracker(**args)
        for i, window in enumerate(_windows(log, cuts)):
            if i in clears:
                columns.clear()
                reference.clear()
            verdict = columns.settle(*window)
            assert verdict.tolist() == reference.settle(*window).tolist()
            assert _column_state(columns) == _column_state(reference)
            assert columns._keys.dtype == columns._epochs.dtype == np.int64
            assert np.all(np.diff(columns._keys) > 0)

    def test_big_keys_take_the_lexsort_branch(self, monkeypatch):
        """A log holding keys near 2^63 settles through ``np.lexsort``
        and still matches the dict tracker."""
        log = [(key, None, False) for key in BIG_KEYS]
        log += [(3, (1 << 63) - 1, True), ((1 << 63) - 1, 3, True)]
        calls = []
        lexsort = np.lexsort

        def counted(*args, **kwargs):
            calls.append(1)
            return lexsort(*args, **kwargs)

        columns = GenerationConflictTracker(4)
        reference = ref.DictGenerationConflictTracker(4)
        window = next(_split(log, ()))
        with monkeypatch.context() as patch:
            patch.setattr(np, "lexsort", counted)
            verdict = columns.settle(*window)
        assert calls
        assert verdict.tolist() == reference.settle(*window).tolist() == [
            False, True
        ]
        assert _column_state(columns) == _column_state(reference)
