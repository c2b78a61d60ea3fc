"""Exact-parity proof: cache batch kernels vs the per-access loop.

The batched ``access_series``/``random_traffic`` kernels must be
*bit-identical* to one :meth:`SharedCache.access` call per element —
same labeled event trains, same verdicts, same evidence bundles, same
counters, same jitter-pool (RNG) stepping — on full audited sessions
and on direct cache workloads, with and without fault injectors, for
both tracker designs (docs/PERFORMANCE.md, "Simulator hot path"). The
reference is the same code with ``_use_batch_kernel()`` forced to
``False``: patched on the class for the sessions
``run_channel_session`` builds, set on the instance for caches built
here.
"""

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.faults.injectors import BitFlipInjector, DropInjector
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.mitigation.partition import _WayPartition
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache
from repro.traces import export_traces, load_traces
from repro.util.bitstream import Message

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
    metrics = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        if not batch:
            patch.setattr(SharedCache, "_use_batch_kernel", lambda self: False)
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
    return run, metrics


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
    times, replacers, victims = machine.cache_miss_tap.records()
    return times.tolist(), replacers.tolist(), victims.tolist()


class TestSessionParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_evidence_and_metrics_identical(self, kind, clean_pair):
        (run_batch, m_batch), (run_ref, m_ref) = clean_pair(kind)
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
        (run_batch, _), (run_ref, _) = clean_pair(kind)
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
        (run_batch, _), (run_ref, _) = clean_pair(kind)
        batch_tr = run_batch.machine.l2.tracker
        ref_tr = run_ref.machine.l2.tracker
        assert batch_tr._current == ref_tr._current
        assert batch_tr._gen_bits == ref_tr._gen_bits
        assert batch_tr._accessed_in_current == ref_tr._accessed_in_current
        for batch_bloom, ref_bloom in zip(batch_tr._blooms, ref_tr._blooms):
            assert batch_bloom._words == ref_bloom._words

    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_identical_under_injection(self, kind):
        def injectors():
            return (
                DropInjector(p=0.2, seed=5),
                BitFlipInjector(p=0.05, seed=9),
            )

        run_batch, m_batch = _run(kind, batch=True, injectors=injectors())
        run_ref, m_ref = _run(kind, batch=False, injectors=injectors())
        assert (
            run_batch.hunter.report().to_dict()
            == run_ref.hunter.report().to_dict()
        )
        assert _evidence_dicts(run_batch.hunter) == _evidence_dicts(
            run_ref.hunter
        )
        assert _count_metrics(m_batch) == _count_metrics(m_ref)

    def test_exported_archives_identical(self, tmp_path, clean_pair):
        (run_batch, _), (run_ref, _) = clean_pair("cache")
        p_batch = tmp_path / "batch.npz"
        p_ref = tmp_path / "ref.npz"
        export_traces(run_batch.machine, p_batch)
        export_traces(run_ref.machine, p_ref)
        a, b = load_traces(p_batch), load_traces(p_ref)
        np.testing.assert_array_equal(a.cache_times, b.cache_times)
        np.testing.assert_array_equal(a.bus_lock_times, b.bus_lock_times)


def _make_cache(batch, tracker_factory, seed=23):
    config = CacheConfig(size_bytes=64 * 1024)  # 128 sets x 8 ways
    tracker = tracker_factory(config.n_sets * config.associativity)
    tap = LabeledEventTap("parity")
    cache = SharedCache(config, tracker, tap, np.random.default_rng(seed))
    if not batch:
        cache._use_batch_kernel = lambda: False
    return cache, tap


def _mixed_workload(cache):
    """Interleaved singles, tuple series, ndarray series, random traffic.

    Covers both fused loop bodies (hit-heavy series after warmup,
    miss-heavy thrash series) and the RNG draw order of
    ``random_traffic``. Returns the observable outputs.
    """
    rng = np.random.default_rng(41)
    outputs = []
    t = 0
    # Warmup fills + a hit-heavy hot set (exercises the hit-sampled body).
    hot = [(int(s), int(g)) for s in range(16) for g in range(8)]
    for _ in range(3):
        t, lat = cache.access_series(0, tuple(hot), 8, t)
        outputs.append(lat.tolist())
    # Miss-heavy thrash: 9 tags cycling through 8 ways (miss-sampled body).
    thrash = [(int(s), int(100 + (i + s) % 9)) for i in range(40)
              for s in range(8)]
    t, lat = cache.access_series(1, np.asarray(thrash, dtype=np.int64), 8, t)
    outputs.append(lat.tolist())
    # Per-access adapter interleaved with series work.
    for i in range(50):
        latency, hit = cache.access(2, int(rng.integers(0, 128)),
                                    int(rng.integers(0, 4)), t)
        outputs.append((latency, hit))
        t += latency
    # Random noise traffic (three RNG draws + jitter stepping).
    t = cache.random_traffic(3, t, 50_000, 400, set_lo=0, set_hi=64,
                             tag_space=16)
    # One more hit-heavy pass so post-traffic state differences surface.
    t, lat = cache.access_series(0, tuple(hot), 8, t)
    outputs.append(lat.tolist())
    return outputs, t


def _state_fingerprint(cache, tap):
    times, replacers, victims = tap.records()
    fp = {
        "counters": (cache.hits, cache.misses, cache.conflict_misses),
        "jitter_idx": cache._jitter_idx,
        "occupancy": cache.occupancy,
        "train": (times.tolist(), replacers.tolist(), victims.tolist()),
        "sets": [dict(s) for s in cache._sets],
    }
    tracker = cache.tracker
    if isinstance(tracker, GenerationConflictTracker):
        fp["tracker"] = (
            tracker._current,
            tracker._accessed_in_current,
            dict(tracker._gen_bits),
            [list(b._words) for b in tracker._blooms],
        )
    return fp


class TestDirectCacheParity:
    @pytest.mark.parametrize(
        "tracker_factory",
        (GenerationConflictTracker, IdealLRUConflictTracker),
        ids=("generation", "ideal-lru"),
    )
    def test_mixed_workload_identical(self, tracker_factory):
        cache_batch, tap_batch = _make_cache(True, tracker_factory)
        cache_ref, tap_ref = _make_cache(False, tracker_factory)
        out_batch, end_batch = _mixed_workload(cache_batch)
        out_ref, end_ref = _mixed_workload(cache_ref)
        assert out_batch == out_ref
        assert end_batch == end_ref
        assert _state_fingerprint(cache_batch, tap_batch) == (
            _state_fingerprint(cache_ref, tap_ref)
        )

    def test_empty_and_single_series(self):
        cache_batch, _ = _make_cache(True, GenerationConflictTracker)
        cache_ref, _ = _make_cache(False, GenerationConflictTracker)
        for cache in (cache_batch, cache_ref):
            end, lat = cache.access_series(0, (), 8, 100)
            assert end == 100 and lat.size == 0
        end_batch, lat_batch = cache_batch.access_series(0, ((3, 7),), 5, 100)
        end_ref, lat_ref = cache_ref.access_series(0, ((3, 7),), 5, 100)
        assert end_batch == end_ref
        assert lat_batch.tolist() == lat_ref.tolist()

    def test_bad_set_index_raises_both_paths(self):
        partitioned, _ = _make_cache(True, GenerationConflictTracker)
        _WayPartition(partitioned, *PARTITION)
        caches = [
            _make_cache(batch, GenerationConflictTracker)[0]
            for batch in (True, False)
        ] + [partitioned]
        for cache in caches:
            for set_index in (-1, 100_000):
                with pytest.raises(SimulationError):
                    cache.access_series(0, ((set_index, 7),), 8, 0)
            assert cache.occupancy == 0


class TestMitigationFallback:
    def test_partition_wrapper_disables_batch_kernel(self):
        cache, _ = _make_cache(True, GenerationConflictTracker)
        assert cache._use_batch_kernel()
        partition = _WayPartition(cache, *PARTITION)
        assert not cache._use_batch_kernel()
        partition.remove()
        assert cache._use_batch_kernel()
