"""Extension: simulator hot path throughput and batch-kernel speedups.

The simulator hot path (docs/PERFORMANCE.md, "Simulator hot path")
claims four things, measured here on the same hardware and committed to
``BENCH_sim.json`` at the repo root:

- a full audited cache-channel session (covert sweeps plus background
  noise through the batched ``access_series``/``random_traffic``
  kernels) holds its absolute rate;
- the batched cache path clears >= 5x over the per-access
  :meth:`SharedCache.access` loop on the kernel it was built for — a
  hit-heavy hot-working-set series, where the per-access loop pays full
  Python overhead per access — with identical hit/miss/conflict
  counters;
- the batched bloom-filter primitives (``add_batch`` /
  ``contains_batch``) dominate their scalar loops by an order of
  magnitude or more;
- a 240-quantum memory-bus session audits thousands of quanta per
  second: the bus answers each spy sample from symbolic burst rows, so
  a late sample costs what an early one does (re-sorting the whole lock
  history on every sample ran this session over 20x slower).

Session rates divide the quanta a session actually ran
(``ChannelRun.quanta``) by its median seconds.

``REPRO_BENCH_QUICK=1`` shrinks trial counts for CI smoke runs (the
speedup assertions still apply; the committed JSON is only rewritten by
a full run).
"""

import json
import os
import statistics
from functools import partial
from time import perf_counter

import numpy as np

from conftest import record

from repro.analysis.figures import run_channel_session
from repro.config import CacheConfig
from repro.hardware.bloom import BloomFilter
from repro.hardware.conflict_tracker import GenerationConflictTracker
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache
from repro.util.bitstream import Message

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N_QUANTA = 8 if QUICK else 16
N_TRIALS = 2 if QUICK else 5
KERNEL_SAMPLES = 50_000 if QUICK else 200_000
#: The bus session runs one bit per quantum. At this length a lock
#: history re-sorted on every sample runs it over 20x slower, a gap no
#: runner's speed can hide.
MEMBUS_QUANTA = 240
MEMBUS_ONES = 0.4
#: A bus session takes tens of milliseconds, so even quick runs afford
#: enough trials for a steady median.
MEMBUS_TRIALS = 5

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sim.json",
)


def _median_rate(run, trials):
    """Median session rate of ``run() -> (seconds, quanta)`` after a warmup."""
    run()
    seconds, quanta = [], 0
    for _ in range(trials):
        sec, quanta = run()
        seconds.append(sec)
    median = statistics.median(seconds)
    return {
        "quanta": quanta,
        "seconds": median,
        "quanta_per_second": quanta / median,
    }


def _cache_session_results():
    """Median rate of a noisy audited cache-channel session."""
    message = Message.random(12, rng=np.random.default_rng(7))

    def run():
        t0 = perf_counter()
        result = run_channel_session(
            "cache",
            message,
            bandwidth_bps=100.0,
            seed=11,
            max_quanta=N_QUANTA,
            noise=True,
        )
        return perf_counter() - t0, result.quanta

    return _median_rate(run, N_TRIALS)


def _membus_session_results():
    """Median rate of a noise-free bus covert session, 40% one bits."""
    bits = np.zeros(MEMBUS_QUANTA, dtype=int)
    ones = round(MEMBUS_ONES * MEMBUS_QUANTA)
    bits[np.random.default_rng(13).choice(bits.size, ones, replace=False)] = 1
    message = Message.from_bits(bits)

    def run():
        t0 = perf_counter()
        result = run_channel_session(
            "membus",
            message,
            bandwidth_bps=10.0,
            seed=19,
            max_quanta=MEMBUS_QUANTA,
            noise=False,
        )
        return perf_counter() - t0, result.quanta

    return _median_rate(run, MEMBUS_TRIALS)


def _time_kernel(fn, *args):
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
    return best


def _bloom_results():
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 1 << 40, size=KERNEL_SAMPLES).tolist()

    def scalar_add():
        bloom = BloomFilter(4096, 3)
        for key in keys:
            bloom.add(key)

    def batch_add():
        bloom = BloomFilter(4096, 3)
        bloom.add_batch(keys)

    filled = BloomFilter(4096, 3)
    filled.add_batch(keys[: KERNEL_SAMPLES // 4])

    def scalar_contains():
        probe = filled.contains
        return [probe(key) for key in keys]

    def batch_contains():
        return filled.contains_batch(keys)

    out = {}
    for name, scalar, batch in (
        ("add", scalar_add, batch_add),
        ("contains", scalar_contains, batch_contains),
    ):
        scalar_sec = _time_kernel(scalar)
        batch_sec = _time_kernel(batch)
        out[name] = {
            "samples": KERNEL_SAMPLES,
            "scalar_seconds": scalar_sec,
            "batch_seconds": batch_sec,
            "speedup": scalar_sec / batch_sec,
        }
    return out


def _fresh_cache():
    config = CacheConfig()
    n_sets = config.size_bytes // (config.line_bytes * config.associativity)
    tracker = GenerationConflictTracker(
        capacity=n_sets * config.associativity
    )
    return SharedCache(
        config, tracker, LabeledEventTap("bench"), np.random.default_rng(5)
    )


def _access_series_per_access(cache, ctx, accesses, gap, start):
    """The per-access reference: one :meth:`SharedCache.access` call per
    element, as the parity tests' reference (tests/sim/cache_reference.py)
    runs it."""
    accesses = accesses.tolist()
    t = int(start)
    latencies = np.empty(len(accesses), dtype=np.int64)
    for i, (set_index, tag) in enumerate(accesses):
        latency, _hit = cache.access(ctx, set_index, tag, t)
        latencies[i] = latency
        t += latency + gap
    return t, latencies


def _access_series_results():
    # A hot working set that fits its sets' ways: the steady state is
    # hit-dominated, which is where the per-access Python overhead the
    # kernel removes is the whole cost.
    rng = np.random.default_rng(9)
    sets = rng.integers(0, 64, size=KERNEL_SAMPLES)
    tags = rng.integers(0, 8, size=KERNEL_SAMPLES)
    pattern = np.stack([sets, tags], axis=1).astype(np.int64)

    def run(batch):
        cache = _fresh_cache()
        series = (
            cache.access_series if batch
            else partial(_access_series_per_access, cache)
        )
        series(0, pattern, 8, 0)  # warm fills
        t0 = perf_counter()
        series(0, pattern, 8, 10**9)
        seconds = perf_counter() - t0
        return seconds, (cache.hits, cache.misses, cache.conflict_misses)

    best = {"batch": float("inf"), "per_access": float("inf")}
    counters = {}
    for _ in range(3):
        for key, batch in (("batch", True), ("per_access", False)):
            seconds, counts = run(batch)
            best[key] = min(best[key], seconds)
            counters[key] = counts
    return {
        "samples": KERNEL_SAMPLES,
        "batch_seconds": best["batch"],
        "per_access_seconds": best["per_access"],
        "speedup": best["per_access"] / best["batch"],
        "counters_identical": counters["batch"] == counters["per_access"],
    }


def measure_sim_throughput():
    return {
        "n_quanta": N_QUANTA,
        "n_trials": N_TRIALS,
        "session": _cache_session_results(),
        "membus_session": _membus_session_results(),
        "kernels": {
            "access_series_hot_set": _access_series_results(),
            "bloom": _bloom_results(),
        },
    }


def test_sim_throughput(benchmark):
    results = benchmark.pedantic(measure_sim_throughput, rounds=1, iterations=1)
    if not QUICK:  # quick CI smoke must not rewrite the committed JSON
        with open(_OUT_PATH, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    ses = results["session"]
    bus = results["membus_session"]
    hot = results["kernels"]["access_series_hot_set"]
    lines = [
        f"cache session  {ses['quanta_per_second']:7.1f} q/s "
        f"({ses['quanta']} quanta, noise)",
        f"membus session {bus['quanta_per_second']:7.1f} q/s "
        f"({bus['quanta']} quanta, no noise)",
        f"access_series hot-set kernel {hot['speedup']:6.1f}x faster than "
        f"per-access loop ({hot['samples']} accesses)",
    ]
    for name, k in sorted(results["kernels"]["bloom"].items()):
        lines.append(
            f"bloom {name:<9} batch {k['speedup']:6.1f}x faster than "
            f"scalar loop ({k['samples']} keys)"
        )
    if not QUICK:
        lines.append(f"(written to {_OUT_PATH})")
    record("Extension: simulator hot path", *lines)
    # The batched cache path must clear 5x where per-access Python
    # overhead is the whole cost (quick mode's smaller series amortizes
    # the kernel's fixed numpy overhead less, so it gates lower).
    assert hot["speedup"] > (3.0 if QUICK else 5.0), results
    assert hot["counters_identical"], results
    # And the bloom batch primitives must dominate their scalar loops.
    # (Quick mode's smaller key sample fits inside the scalar path's
    # probe_words memo, deflating the ratio; the full run resolves it.)
    bloom_floor = 2.0 if QUICK else 5.0
    for name, k in results["kernels"]["bloom"].items():
        assert k["speedup"] > bloom_floor, (name, results)
