"""Exact-parity proof: cache batch kernels vs the per-access loop.

The batched ``access_series``/``random_traffic`` kernels must be
*bit-identical* to one per-access ``access`` call per element —
same labeled event trains, same verdicts, same evidence bundles, same
counters, same jitter-pool (RNG) stepping — on full audited sessions
and on direct cache workloads, with and without fault injectors, for
both tracker designs (docs/PERFORMANCE.md, "Simulator hot path"). The
reference is :mod:`tests.sim.cache_reference`: a per-access cache,
built by the machines ``run_channel_session`` makes under
:func:`per_access_reference` and directly for caches built here. Its
generation tracker is the dict-based one from before the key-sorted
columns (:mod:`tests.hardware.tracker_reference`), so tracker state is
compared as a key -> last-touch epoch mapping. Each reference run counts
its ``access`` calls, so a reference that quietly batches fails.
"""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.faults.injectors import BitFlipInjector, DropInjector
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.mitigation import partition_cache_ways
from repro.mitigation.partition import _WayPartition
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import LabeledEventTap
from repro.sim.machine import Machine
from repro.sim.resources.cache import SharedCache
from repro.traces import export_traces, load_traces
from repro.util.bitstream import Message
from repro.workloads.noise import background_noise_processes
from tests.hardware.test_settle_parity import last_touch, tracker_observables
from tests.hardware.tracker_reference import DictGenerationConflictTracker
from tests.sim.cache_reference import (
    TRACKER_PAIRS,
    PerAccessCache,
    access_series_per_access,
    counted_access_calls,
    per_access_reference,
    random_traffic_per_access,
)
from tests.sim.tap_reference import recorded_records

pytestmark = pytest.mark.parity

COUNT_METRICS = (
    "cchunter_source_observations_total",
    "cchunter_source_channel_events_total",
    "cchunter_source_conflict_records_total",
    "cchunter_session_quanta_total",
    "cchunter_analyzer_windows_total",
    "cchunter_analyzer_events_total",
    "cchunter_analyzer_train_events_total",
)

#: Both channel families exercise the cache: 'cache' through the covert
#: sweep/probe series, 'membus' through the background noise traffic.
KINDS = ("membus", "cache")

#: A four-context way partition of an 8-way cache.
PARTITION = ({0: 0, 1: 1, 2: 2, 3: 2}, {0: 2, 1: 2, 2: 4})


def _run(kind, batch, injectors=()):
    """One audited session: ``(run, metrics, calls)``, where ``calls``
    counts the reference cache's ``access`` calls."""
    metrics = MetricsRegistry()
    reference = nullcontext() if batch else per_access_reference()
    with counted_access_calls() as calls, reference:
        run = run_channel_session(
            kind,
            Message.random(12, 7),
            bandwidth_bps=100.0,
            seed=11,
            max_quanta=12,
            track_detection_latency=True,
            injectors=injectors,
            capture_evidence=True,
            metrics=metrics,
        )
    return run, metrics, calls[0]


@pytest.fixture(scope="module")
def clean_pair():
    """Uninjected ``(batch, per-access)`` session pairs, one per kind.

    Built once per module: the tests below only read them. Evidence
    capture is on, which never touches the taps the archives come from.
    """
    pairs = {}

    def get(kind):
        if kind not in pairs:
            pairs[kind] = (_run(kind, batch=True), _run(kind, batch=False))
        return pairs[kind]

    return get


def _count_metrics(metrics):
    dump = metrics.to_dict()["metrics"]
    return {
        name: dump[name]["series"]
        for name in COUNT_METRICS
        if name in dump
    }


def _evidence_dicts(hunter):
    return {
        unit: bundle.to_dict()
        for unit, bundle in hunter.session.evidence().items()
    }


def _cache_event_train(machine):
    times, replacers, victims = recorded_records(machine.cache_miss_tap)
    return times.tolist(), replacers.tolist(), victims.tolist()


class TestSessionParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_evidence_and_metrics_identical(self, kind, clean_pair):
        (run_batch, m_batch, _), (run_ref, m_ref, _) = clean_pair(kind)
        assert (
            run_batch.hunter.report().to_dict()
            == run_ref.hunter.report().to_dict()
        )
        assert _evidence_dicts(run_batch.hunter) == _evidence_dicts(
            run_ref.hunter
        )
        assert _count_metrics(m_batch) == _count_metrics(m_ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_labeled_event_trains_identical(self, kind, clean_pair):
        (run_batch, _, _), (run_ref, _, _) = clean_pair(kind)
        assert _cache_event_train(run_batch.machine) == _cache_event_train(
            run_ref.machine
        )
        batch_l2, ref_l2 = run_batch.machine.l2, run_ref.machine.l2
        assert (batch_l2.hits, batch_l2.misses, batch_l2.conflict_misses) == (
            ref_l2.hits,
            ref_l2.misses,
            ref_l2.conflict_misses,
        )
        assert batch_l2._jitter_idx == ref_l2._jitter_idx

    @pytest.mark.parametrize("kind", KINDS)
    def test_tracker_state_identical(self, kind, clean_pair):
        (run_batch, _, _), (run_ref, _, _) = clean_pair(kind)
        batch_tr = run_batch.machine.l2.tracker
        ref_tr = run_ref.machine.l2.tracker
        assert batch_tr.generation_advances > 0
        assert isinstance(ref_tr, DictGenerationConflictTracker)
        assert last_touch(batch_tr) == ref_tr._last_touch
        assert tracker_observables(run_batch.machine.l2) == (
            tracker_observables(run_ref.machine.l2)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_only_the_reference_calls_access(self, kind, clean_pair):
        """The reference makes one ``access`` call per cache access (each
        one counts a hit or a miss); the batch cache has no ``access``."""
        (run_batch, _, batch_calls), (run_ref, _, ref_calls) = clean_pair(kind)
        ref_l2 = run_ref.machine.l2
        assert isinstance(ref_l2, PerAccessCache)
        assert ref_calls == ref_l2.hits + ref_l2.misses > 0
        assert batch_calls == 0
        assert not hasattr(run_batch.machine.l2, "access")

    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_identical_under_injection(self, kind):
        def injectors():
            return (
                DropInjector(p=0.2, seed=5),
                BitFlipInjector(p=0.05, seed=9),
            )

        run_batch, m_batch, _ = _run(kind, batch=True, injectors=injectors())
        run_ref, m_ref, _ = _run(kind, batch=False, injectors=injectors())
        assert (
            run_batch.hunter.report().to_dict()
            == run_ref.hunter.report().to_dict()
        )
        assert _evidence_dicts(run_batch.hunter) == _evidence_dicts(
            run_ref.hunter
        )
        assert _count_metrics(m_batch) == _count_metrics(m_ref)

    def test_exported_archives_identical(self, tmp_path, clean_pair):
        (run_batch, _, _), (run_ref, _, _) = clean_pair("cache")
        p_batch = tmp_path / "batch.npz"
        p_ref = tmp_path / "ref.npz"
        export_traces(run_batch.machine, p_batch)
        export_traces(run_ref.machine, p_ref)
        a, b = load_traces(p_batch), load_traces(p_ref)
        np.testing.assert_array_equal(a.cache_times, b.cache_times)
        np.testing.assert_array_equal(a.bus_lock_times, b.bus_lock_times)


def _make_cache(tracker_factory, seed=23, cls=SharedCache):
    config = CacheConfig(size_bytes=64 * 1024)  # 128 sets x 8 ways
    tracker = tracker_factory(config.n_sets * config.associativity)
    tap = LabeledEventTap("parity")
    cache = cls(config, tracker, tap, np.random.default_rng(seed))
    return cache, tap


def _reference_cache(tracker_factory=DictGenerationConflictTracker):
    return _make_cache(tracker_factory, cls=PerAccessCache)


def _single(cache, per_access, ctx, set_index, tag, time):
    """One access, ``(latency, hit)``: the reference's ``access``, or a
    one-element series on the batch cache."""
    if per_access:
        return cache.access(ctx, set_index, tag, time)
    hits = cache.hits
    _end, latencies = cache.access_series(ctx, ((set_index, tag),), 0, time)
    return int(latencies[0]), cache.hits > hits


def _mixed_workload(cache, per_access):
    """Interleaved singles, tuple series, ndarray series, random traffic.

    Covers hit-heavy series after warmup, a miss-heavy thrash series,
    single accesses between series, and the RNG draw order of
    ``random_traffic``; ``per_access`` runs all of it through the
    reference instead. Returns the observable outputs.
    """
    if per_access:
        series = partial(access_series_per_access, cache)
        traffic = partial(random_traffic_per_access, cache)
    else:
        series, traffic = cache.access_series, cache.random_traffic
    rng = np.random.default_rng(41)
    outputs = []
    t = 0
    # Warmup fills + a hit-heavy hot set.
    hot = [(int(s), int(g)) for s in range(16) for g in range(8)]
    for _ in range(3):
        t, lat = series(0, tuple(hot), 8, t)
        outputs.append(lat.tolist())
    # Miss-heavy thrash: 9 tags cycling through 8 ways.
    thrash = [(int(s), int(100 + (i + s) % 9)) for i in range(40)
              for s in range(8)]
    t, lat = series(1, np.asarray(thrash, dtype=np.int64), 8, t)
    outputs.append(lat.tolist())
    # Single accesses interleaved with series work.
    for i in range(50):
        latency, hit = _single(cache, per_access, 2, int(rng.integers(0, 128)),
                               int(rng.integers(0, 4)), t)
        outputs.append((latency, hit))
        t += latency
    # Random noise traffic (three RNG draws + jitter stepping).
    t = traffic(3, t, 50_000, 400, set_lo=0, set_hi=64, tag_space=16)
    # One more hit-heavy pass so post-traffic state differences surface.
    t, lat = series(0, tuple(hot), 8, t)
    outputs.append(lat.tolist())
    return outputs, t


def _state_fingerprint(cache, tap):
    cache.settle()
    times, replacers, victims = recorded_records(tap)
    fp = {
        "counters": (cache.hits, cache.misses, cache.conflict_misses),
        "jitter_idx": cache._jitter_idx,
        "occupancy": cache.occupancy,
        "train": (times.tolist(), replacers.tolist(), victims.tolist()),
        "sets": [dict(s) for s in cache._sets],
    }
    fp["tracker"] = tracker_observables(cache)
    if not isinstance(cache.tracker, IdealLRUConflictTracker):
        fp["epochs"] = last_touch(cache.tracker)
    return fp


class TestDirectCacheParity:
    @pytest.mark.parametrize(
        "trackers", TRACKER_PAIRS, ids=("generation", "ideal-lru")
    )
    def test_mixed_workload_identical(self, trackers):
        batch_factory, ref_factory = trackers
        cache_batch, tap_batch = _make_cache(batch_factory)
        cache_ref, tap_ref = _reference_cache(ref_factory)
        with counted_access_calls() as batch_calls:
            out_batch, end_batch = _mixed_workload(cache_batch, False)
        with counted_access_calls() as ref_calls:
            out_ref, end_ref = _mixed_workload(cache_ref, True)
        assert out_batch == out_ref
        assert end_batch == end_ref
        assert _state_fingerprint(cache_batch, tap_batch) == (
            _state_fingerprint(cache_ref, tap_ref)
        )
        # The batch cache has no ``access``; the reference calls it for
        # every access.
        assert batch_calls[0] == 0
        assert ref_calls[0] == cache_ref.hits + cache_ref.misses

    def test_empty_and_single_series(self):
        cache_batch, _ = _make_cache(GenerationConflictTracker)
        cache_ref, _ = _reference_cache()
        for end, lat in (
            cache_batch.access_series(0, (), 8, 100),
            access_series_per_access(cache_ref, 0, (), 8, 100),
        ):
            assert end == 100 and lat.size == 0
        end_batch, lat_batch = cache_batch.access_series(0, ((3, 7),), 5, 100)
        end_ref, lat_ref = access_series_per_access(
            cache_ref, 0, ((3, 7),), 5, 100
        )
        assert end_batch == end_ref
        assert lat_batch.tolist() == lat_ref.tolist()

    def test_bad_set_index_raises_both_paths(self):
        batch, _ = _make_cache(GenerationConflictTracker)
        reference, _ = _reference_cache()
        partitioned, _ = _make_cache(GenerationConflictTracker)
        _WayPartition(partitioned, *PARTITION)
        runs = (
            (batch, batch.access_series),
            (reference, partial(access_series_per_access, reference)),
            (partitioned, partitioned.access_series),
        )
        for cache, series in runs:
            for set_index in (-1, 100_000):
                with pytest.raises(SimulationError):
                    series(0, ((set_index, 7),), 8, 0)
            assert cache.occupancy == 0


class TestMitigatedSessionsBatch:
    def test_partitioned_session_makes_no_access_call(self):
        """A partitioned cache channel session, noise included, runs
        entirely through the batch kernels: the cache has no ``access``."""
        machine = Machine(seed=6)
        channel = CacheCovertChannel(
            machine,
            ChannelConfig(message=Message.random(8, 3), bandwidth_bps=500.0),
            n_sets_total=32,
        )
        channel.deploy(trojan_ctx=0, spy_ctx=2)
        quanta = channel.quanta_needed()
        background_noise_processes(
            machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=6
        )
        partition_cache_ways(machine, suspect_contexts=(0, 2))
        with counted_access_calls() as calls:
            machine.run_quanta(quanta)
        assert machine.l2.hits + machine.l2.misses > 0
        assert calls[0] == 0
        assert not hasattr(machine.l2, "access")
