"""Extension: simulator hot path throughput.

The simulator hot path (docs/PERFORMANCE.md, "Simulator hot path")
makes these claims, measured here on the same hardware and committed to
``BENCH_sim.json`` at the repo root:

- a full audited cache-channel session (covert sweeps plus background
  noise through the batched ``access_series``/``random_traffic``
  kernels) holds its absolute rate, both short (set-up dominated) and
  at steady state: 32 quanta at 256 sets, as the cache-noisy benchmark
  workload runs it, where the LRU walk and the conflict tracker's
  settle are the whole cost (classifying each series' conflicts on its
  own ran it at about 0.4x the rate);
- a 240-quantum memory-bus session audits thousands of quanta per
  second: the bus answers each spy sample from symbolic burst rows, so
  a late sample costs what an early one does (re-sorting the whole lock
  history on every sample ran this session over 20x slower);
- a 600-quantum memory-bus session with a verdict every quantum holds
  its rate past the 512-window recurrence horizon: a verdict clusters
  the horizon's distinct patterns, not its windows (re-clustering all
  512 windows on every verdict ran this session at about 0.25x);
- each in-process path costs the same per quantum late in a session as
  early: the Figure 14 bzip2+h264ref pair (divider), the bus session
  with a verdict every quantum and the noisy cache session each run at
  two lengths, and the long session's last quanta cost at most
  ``GROWTH_BOUND`` times a short session's per quantum. A cost that
  grows with history (rebuilding every divider usage track on each
  registration took the benign pair from 69 to 316 ms per quantum
  between 12 and 96 quanta) fails this on any host, with no baseline
  to drift;
- a verdict on a full recurrence horizon of a bus covert session's two
  patterns costs at most ``VERDICT_COST_BOUND`` burst analyses of the
  horizon's total: it re-analyzes only the patterns the last push
  changed and runs no k-means (re-clustering and re-analyzing every
  pattern on each verdict read about 9);
- a verdict on the served benign tenant's full horizon, about 140
  patterns whose symbols sit in bins 2-12, costs at most
  ``KMEANS_COST_BOUND`` burst analyses of the horizon's total: k-means
  runs over the 16 symbol columns that can be non-zero (clustering all
  128 columns read about 60);
- a divider quantum's tap read and monitor-slot fold cost O(segments),
  not O(windows): at the divider's Δt of 500 cycles (500k windows a
  quantum) they cost at most ``DIVIDER_COUNTS_BOUND`` times the same
  segments read at Δt = 50,000 (5,000 windows). Spreading the segments
  into one float per window and binning them read about 29;
- a cache observation window costs one correlogram: pushing a window of
  a covert ping-pong's 4,000-record train plus 800 records on other
  context pairs costs at most ``OSCILLATION_COST_BOUND`` analyses of a
  correlogram. Feeding every pair its own running estimator and
  correlating the dominant train over all its lags read about 27.

Session rates divide the quanta a session actually ran
(``ChannelRun.quanta``) by its median seconds. A growth row times its
two sessions' quanta one by one, alternating between them, so set-up is
excluded and a host slowdown hits both lengths (see
``_growth_results``).

``REPRO_BENCH_QUICK=1`` shrinks trial counts for CI smoke runs (the
growth and cost assertions still apply; the committed JSON is only
rewritten by a full run).
"""

import json
import os
import statistics
from functools import partial
from time import perf_counter

import numpy as np

from conftest import record

from repro.analysis.figures import run_channel_session
from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.channels.membus import MemoryBusCovertChannel
from repro.config import (
    CLUSTERING_WINDOW_QUANTA,
    DIVIDER_DELTA_T_CYCLES,
    MEMBUS_DELTA_T_CYCLES,
    AuditorConfig,
)
from repro.core.burst import analyze_histogram
from repro.core.detector import AuditUnit, CCHunter
from repro.core.oscillation import analyze_autocorrelogram
from repro.hardware.auditor import MonitorSlot
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.analyzers import BurstAnalyzer, OscillationAnalyzer
from repro.pipeline.source import (
    ConflictRecords,
    QuantumObservation,
    WindowCounts,
)
from repro.serve import traffic
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from repro.workloads.base import workload_process
from repro.workloads.noise import background_noise_processes
from repro.workloads.spec import bzip2, h264ref

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N_QUANTA = 8 if QUICK else 16
N_TRIALS = 2 if QUICK else 5
#: The bus session runs one bit per quantum. At this length a lock
#: history re-sorted on every sample runs it over 20x slower, a gap no
#: runner's speed can hide.
MEMBUS_QUANTA = 240
MEMBUS_ONES = 0.4
#: A bus session takes tens of milliseconds, so even quick runs afford
#: enough trials for a steady median.
MEMBUS_TRIALS = 5
#: The eager bus session evaluates a verdict after every quantum and
#: runs past the 512-window recurrence horizon.
MEMBUS_EAGER_QUANTA = 600
#: The steady-state cache session: the cache-noisy benchmark workload's
#: session shape. One session takes about a second.
CACHE_STEADY_QUANTA = 32
CACHE_STEADY_SETS = 256
CACHE_STEADY_TRIALS = 2 if QUICK else 3
#: A growth row fails when its long session's last quanta cost more
#: than this multiple of its short session's, per quantum.
GROWTH_BOUND = 1.25
GROWTH_TRIALS = 2 if QUICK else 3
#: (short, long) session lengths per growth row: about a second per
#: trial each. A bus quantum takes well under a millisecond, so its
#: sessions need hundreds of quanta for a steady ratio; the long one
#: runs past the 512-window recurrence horizon.
DIVIDER_GROWTH_QUANTA = (12, 48)
MEMBUS_GROWTH_QUANTA = (300, 1200)
CACHE_GROWTH_QUANTA = (8, 32)
CACHE_GROWTH_SETS = 64

GROWTH_ROWS = ("divider_growth", "membus_growth", "cache_growth")
#: Timed verdicts of the verdict-cost row, each after one more push
#: past the recurrence horizon.
VERDICT_COST_TRIALS = 300 if QUICK else 1000
#: The verdict-cost row fails when a verdict costs more than this many
#: burst analyses of the horizon's total.
VERDICT_COST_BOUND = 3.0
#: Timed verdicts of the k-means-cost row, each after one more served
#: benign observation past the recurrence horizon, and the traffic seed.
KMEANS_COST_TRIALS = 100 if QUICK else 300
KMEANS_COST_SEED = 5
#: The k-means-cost row fails when a verdict on the served benign
#: tenant's horizon costs more than this many burst analyses of the
#: horizon's total.
KMEANS_COST_BOUND = 40.0
#: Quanta of the benign divider pair whose tap reads the divider-counts
#: row times (about 1,400 wait segments each), and the coarse Δt the
#: divider's own Δt is timed against.
DIVIDER_COUNTS_QUANTA = 8
DIVIDER_COUNTS_COARSE_DT = 50_000
DIVIDER_COUNTS_TRIALS = 2 if QUICK else 3
#: The divider-counts row fails when a quantum's read and fold at the
#: divider's Δt cost more than this multiple of the coarse Δt's.
DIVIDER_COUNTS_BOUND = 3.0
#: Timed window pushes of the oscillation-cost row.
OSCILLATION_COST_TRIALS = 100 if QUICK else 300
#: The oscillation-cost row fails when pushing one cache window costs
#: more than this many correlogram analyses.
OSCILLATION_COST_BOUND = 14.0

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


def _cache_steady_session_results():
    """Median rate of a 32-quantum noisy cache session at 256 sets."""
    message = Message.random(CACHE_STEADY_QUANTA, rng=np.random.default_rng(23))

    def run():
        t0 = perf_counter()
        result = run_channel_session(
            "cache",
            message,
            bandwidth_bps=10.0,
            seed=29,
            max_quanta=CACHE_STEADY_QUANTA,
            noise=True,
            n_sets_total=CACHE_STEADY_SETS,
        )
        return perf_counter() - t0, result.quanta

    return _median_rate(run, CACHE_STEADY_TRIALS)


def _one_bit_per_quantum(n_quanta):
    """A message of ``n_quanta`` bits, ``MEMBUS_ONES`` of them ones."""
    bits = np.zeros(n_quanta, dtype=int)
    ones = round(MEMBUS_ONES * n_quanta)
    bits[np.random.default_rng(13).choice(bits.size, ones, replace=False)] = 1
    return Message.from_bits(bits)


def _membus_session_results(n_quanta=MEMBUS_QUANTA, eager=False):
    """Median rate of a noise-free bus covert session, 40% one bits.

    ``eager`` evaluates a verdict after every quantum, as time-to-detection
    tracking does; otherwise the session is judged once, at the end.
    """
    message = _one_bit_per_quantum(n_quanta)

    def run():
        t0 = perf_counter()
        result = run_channel_session(
            "membus",
            message,
            bandwidth_bps=10.0,
            seed=19,
            max_quanta=n_quanta,
            noise=False,
            track_detection_latency=eager,
        )
        return perf_counter() - t0, result.quanta

    return _median_rate(run, MEMBUS_TRIALS)


def _growth_results(build, lengths):
    """Per-quantum cost late in a long session over early in a short one.

    ``build(n_quanta)`` sets up a session of ``n_quanta`` and returns its
    machine. The long session runs all but its last ``short`` quanta;
    then its remaining quanta and a fresh short session's quanta run
    alternately, one quantum each, timed from quantum start to quantum
    end. A host slowdown therefore lands on both sides alike. Set-up and
    each side's first timed quantum are excluded.
    """
    short, long_ = lengths
    late_s, early_s, ratios = [], [], []
    for _trial in range(GROWTH_TRIALS):
        late = build(long_)
        late.run_quanta(long_ - short)
        machines = (late, build(short))
        spent = [0.0, 0.0]
        for q in range(short):
            for side in (0, 1) if q % 2 == 0 else (1, 0):
                t0 = perf_counter()
                machines[side].run_quanta(1)
                if q:
                    spent[side] += perf_counter() - t0
        late_s.append(spent[0] / (short - 1))
        early_s.append(spent[1] / (short - 1))
        ratios.append(spent[0] / spent[1])
    ratio = statistics.median(ratios)
    return {
        "quanta": list(lengths),
        "short_quantum_seconds": statistics.median(early_s),
        "long_quantum_seconds": statistics.median(late_s),
        "ratio": ratio,
        "flat": ratio <= GROWTH_BOUND,
    }


def _verdict_ratio(analyzer, observations, bound):
    """A verdict's cost in burst analyses, past the recurrence horizon.

    ``observations`` fill ``analyzer``'s 512-window horizon; then each
    trial pushes one more and times ``BurstAnalyzer.verdict()`` and one
    ``analyze_histogram`` of the horizon's total, alternating which runs
    first, so a host slowdown lands on both. The ratio of their medians
    needs no baseline, and the row is cheap when it is at most
    ``bound``.
    """
    verdict_s, analysis_s = [], []
    for q, obs in enumerate(observations):
        analyzer.push(obs)
        if q < CLUSTERING_WINDOW_QUANTA:
            continue
        total = np.sum(analyzer.histograms, axis=0)
        timed = [
            (verdict_s, analyzer.verdict),
            (analysis_s, partial(analyze_histogram, total)),
        ]
        for spent, run in timed if q % 2 else timed[::-1]:
            t0 = perf_counter()
            run()
            spent.append(perf_counter() - t0)
    ratio = statistics.median(verdict_s) / statistics.median(analysis_s)
    return {
        "ratio": ratio,
        "verdict_seconds": statistics.median(verdict_s),
        "analysis_seconds": statistics.median(analysis_s),
        "trials": len(verdict_s),
        "cheap": ratio <= bound,
    }


def _verdict_cost_results():
    """A verdict on a bus covert session's two patterns.

    A bus covert session's quanta as the analyzer sees them: 2,500 Δt
    windows, empty when the bit is 0, with 1,000 windows of 20 events
    when it is 1 (``MEMBUS_ONES`` of the quanta), so the horizon holds
    two patterns and a verdict runs no k-means.
    """
    quiet = np.zeros(2500, dtype=np.int64)
    burst = quiet.copy()
    burst[:1000] = 20
    message = _one_bit_per_quantum(
        CLUSTERING_WINDOW_QUANTA + VERDICT_COST_TRIALS
    )
    observations = (
        QuantumObservation(
            quantum=q, t0=q, t1=q + 1,
            counts={"membus": WindowCounts(burst if bit else quiet)},
        )
        for q, bit in enumerate(message)
    )
    analyzer = BurstAnalyzer(
        "membus", MEMBUS_DELTA_T_CYCLES, metrics=MetricsRegistry()
    )
    return _verdict_ratio(analyzer, observations, VERDICT_COST_BOUND)


def _kmeans_cost_results():
    """A verdict on the served benign tenant's horizon, which runs k-means.

    ``benign_observations`` (50 Δt windows of 2 + Poisson(2) events per
    quantum) past the horizon leave about 140 live patterns whose
    symbols sit in bins 2-12, so every verdict clusters them.
    """
    analyzer = BurstAnalyzer("membus", traffic.DT, metrics=MetricsRegistry())
    observations = traffic.benign_observations(
        CLUSTERING_WINDOW_QUANTA + KMEANS_COST_TRIALS, seed=KMEANS_COST_SEED
    )
    return _verdict_ratio(analyzer, observations, KMEANS_COST_BOUND)


def _divider_counts_results():
    """A divider quantum's tap read and slot fold, fine Δt over coarse.

    The bzip2+h264ref pair records its divider waits for
    ``DIVIDER_COUNTS_QUANTA`` quanta; then each trial reads the wait tap
    quantum by quantum at the divider's Δt and at
    ``DIVIDER_COUNTS_COARSE_DT``, 100 times fewer windows, through a
    fresh reader per Δt, and folds each read into a fresh monitor slot.
    The two Δt alternate which runs first, so a host slowdown lands on
    both, and the ratio of their medians needs no baseline: the same
    segments cost the same at either Δt unless a path pays per window.
    """
    machine = _benign_divider_machine(DIVIDER_COUNTS_QUANTA)
    machine.run_quanta(DIVIDER_COUNTS_QUANTA)
    tap = machine.divider_wait_tap_for(0)
    span = machine.quantum_cycles
    fine_s, coarse_s = [], []
    for _trial in range(DIVIDER_COUNTS_TRIALS):
        sides = [
            (spent, dt, tap.window_reader(),
             MonitorSlot("divider", dt, AuditorConfig()))
            for spent, dt in (
                (fine_s, DIVIDER_DELTA_T_CYCLES),
                (coarse_s, DIVIDER_COUNTS_COARSE_DT),
            )
        ]
        for q in range(DIVIDER_COUNTS_QUANTA):
            for spent, dt, reader, slot in sides if q % 2 else sides[::-1]:
                t0 = perf_counter()
                slot.ingest_window_counts(
                    reader.read_counts(dt, q * span, (q + 1) * span)
                )
                spent.append(perf_counter() - t0)
                slot.read_and_reset()
    ratio = statistics.median(fine_s) / statistics.median(coarse_s)
    return {
        "quanta": DIVIDER_COUNTS_QUANTA,
        "fine_seconds": statistics.median(fine_s),
        "coarse_seconds": statistics.median(coarse_s),
        "ratio": ratio,
        "flat": ratio <= DIVIDER_COUNTS_BOUND,
    }


def _oscillation_window(rng, n_train=4000, half=128, n_other=800):
    """One quantum's conflict records as a covert cache window: a
    square-wave ping-pong between contexts 0 and 2 of half-period
    ``half``, interleaved in time with records on other context pairs."""
    wave = (np.arange(n_train) // half) % 2 == 0
    others = np.array([(1, 3), (3, 1), (4, 5), (5, 4), (6, 7), (1, 7)])
    other = others[rng.integers(0, len(others), size=n_other)]
    covert = np.zeros(n_train + n_other, dtype=bool)
    covert[rng.choice(covert.size, n_train, replace=False)] = True
    replacers = np.empty(covert.size, dtype=np.int16)
    victims = np.empty(covert.size, dtype=np.int16)
    replacers[covert] = np.where(wave, 0, 2)
    victims[covert] = np.where(wave, 2, 0)
    replacers[~covert] = other[:, 0]
    victims[~covert] = other[:, 1]
    span = 10 * covert.size
    times = np.sort(rng.choice(span, covert.size, replace=False))
    return span, ConflictRecords(
        times=times.astype(np.int64), replacers=replacers, victims=victims
    )


def _oscillation_cost_results():
    """One cache window's push in correlogram analyses.

    Each trial pushes the same one-window quantum (see
    :func:`_oscillation_window`) into an ``OscillationAnalyzer`` and
    times it against one ``analyze_autocorrelogram`` of the previous
    window's correlogram, alternating which runs first, so a host
    slowdown lands on both. The push itself analyzes one correlogram, so
    the ratio of their medians is at least 1 and needs no baseline.
    """
    span, records = _oscillation_window(np.random.default_rng(31))
    analyzer = OscillationAnalyzer(metrics=MetricsRegistry())
    push_s, analysis_s = [], []
    for q in range(OSCILLATION_COST_TRIALS + 1):
        obs = QuantumObservation(
            quantum=q, t0=0, t1=span, conflicts=records
        )
        if not q:
            analyzer.push(obs)
            continue
        timed = [
            (push_s, partial(analyzer.push, obs)),
            (analysis_s,
             partial(analyze_autocorrelogram, analyzer.last_acf)),
        ]
        for spent, run in timed if q % 2 else timed[::-1]:
            t0 = perf_counter()
            run()
            spent.append(perf_counter() - t0)
    assert analyzer.significant_windows == analyzer.windows_analyzed
    ratio = statistics.median(push_s) / statistics.median(analysis_s)
    return {
        "ratio": ratio,
        "push_seconds": statistics.median(push_s),
        "analysis_seconds": statistics.median(analysis_s),
        "trials": OSCILLATION_COST_TRIALS,
        "cheap": ratio <= OSCILLATION_COST_BOUND,
    }


def _benign_divider_machine(n_quanta):
    """The Figure 14 bzip2+h264ref pair under full audit, as
    ``fig14_false_alarms`` runs it."""
    machine = Machine(seed=9)
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.MEMORY_BUS)
    hunter.audit(AuditUnit.DIVIDER, core=0)
    CCHunter(machine).audit(AuditUnit.CACHE)
    for ctx, (profile, seed) in enumerate(((bzip2, 1), (h264ref, 2))):
        machine.spawn(
            workload_process(profile, machine, n_quanta, seed=seed,
                             instance=ctx),
            ctx=ctx,
        )
    return machine


def _covert_machine(channel_cls, unit, n_quanta, noise, **channel_kwargs):
    """A covert session with a verdict every quantum, one bit per
    quantum (40% ones), as ``run_channel_session`` sets it up."""
    machine = Machine(seed=19)
    hunter = CCHunter(machine, track_detection_latency=True)
    config = ChannelConfig(
        message=_one_bit_per_quantum(n_quanta), bandwidth_bps=10.0
    )
    channel = channel_cls(machine, config, **channel_kwargs)
    hunter.audit(unit)
    channel.deploy()
    if noise:
        background_noise_processes(
            machine, n_quanta=n_quanta, seed=19,
            avoid_contexts=(channel.trojan_ctx, channel.spy_ctx),
        )
    return machine


def measure_sim_throughput():
    return {
        "n_quanta": N_QUANTA,
        "n_trials": N_TRIALS,
        "session": _cache_session_results(),
        "cache_steady_session": _cache_steady_session_results(),
        "membus_session": _membus_session_results(),
        "membus_eager_session": _membus_session_results(
            MEMBUS_EAGER_QUANTA, eager=True
        ),
        "divider_growth": _growth_results(
            _benign_divider_machine, DIVIDER_GROWTH_QUANTA
        ),
        "membus_growth": _growth_results(
            partial(
                _covert_machine, MemoryBusCovertChannel,
                AuditUnit.MEMORY_BUS, noise=False,
            ),
            MEMBUS_GROWTH_QUANTA,
        ),
        "cache_growth": _growth_results(
            partial(
                _covert_machine, CacheCovertChannel, AuditUnit.CACHE,
                noise=True, n_sets_total=CACHE_GROWTH_SETS,
            ),
            CACHE_GROWTH_QUANTA,
        ),
        "verdict_cost": _verdict_cost_results(),
        "kmeans_cost": _kmeans_cost_results(),
        "divider_counts": _divider_counts_results(),
        "oscillation_cost": _oscillation_cost_results(),
    }


def test_sim_throughput(benchmark):
    results = benchmark.pedantic(measure_sim_throughput, rounds=1, iterations=1)
    if not QUICK:  # quick CI smoke must not rewrite the committed JSON
        with open(_OUT_PATH, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    ses = results["session"]
    steady = results["cache_steady_session"]
    bus = results["membus_session"]
    eager = results["membus_eager_session"]
    lines = [
        f"cache session  {ses['quanta_per_second']:7.1f} q/s "
        f"({ses['quanta']} quanta, noise)",
        f"cache session  {steady['quanta_per_second']:7.1f} q/s "
        f"({steady['quanta']} quanta, noise, {CACHE_STEADY_SETS} sets)",
        f"membus session {bus['quanta_per_second']:7.1f} q/s "
        f"({bus['quanta']} quanta, no noise)",
        f"membus session {eager['quanta_per_second']:7.1f} q/s "
        f"({eager['quanta']} quanta, no noise, verdict every quantum)",
    ]
    for name in GROWTH_ROWS:
        row = results[name]
        short, long_ = row["quanta"]
        lines.append(
            f"{name:<15}{row['ratio']:6.2f}x per-quantum cost at {long_} vs "
            f"{short} quanta ({1e3 * row['short_quantum_seconds']:.2f} -> "
            f"{1e3 * row['long_quantum_seconds']:.2f} ms)"
        )
    cost = results["verdict_cost"]
    lines.append(
        f"verdict_cost   {cost['ratio']:6.2f}x one burst analysis "
        f"({1e6 * cost['verdict_seconds']:.0f} vs "
        f"{1e6 * cost['analysis_seconds']:.0f} us, two patterns, past the "
        f"{CLUSTERING_WINDOW_QUANTA}-window horizon)"
    )
    kmeans = results["kmeans_cost"]
    lines.append(
        f"kmeans_cost    {kmeans['ratio']:6.2f}x one burst analysis "
        f"({1e3 * kmeans['verdict_seconds']:.2f} vs "
        f"{1e3 * kmeans['analysis_seconds']:.2f} ms, served benign horizon)"
    )
    counts = results["divider_counts"]
    lines.append(
        f"divider_counts {counts['ratio']:6.2f}x a quantum's read and fold "
        f"at dt {DIVIDER_DELTA_T_CYCLES} vs {DIVIDER_COUNTS_COARSE_DT} "
        f"({1e3 * counts['fine_seconds']:.2f} vs "
        f"{1e3 * counts['coarse_seconds']:.2f} ms)"
    )
    osc = results["oscillation_cost"]
    lines.append(
        f"oscillation_cost {osc['ratio']:4.2f}x one correlogram analysis "
        f"({1e3 * osc['push_seconds']:.2f} vs "
        f"{1e3 * osc['analysis_seconds']:.2f} ms, one cache window)"
    )
    if not QUICK:
        lines.append(f"(written to {_OUT_PATH})")
    record("Extension: simulator hot path", *lines)
    # No in-process path may cost more per quantum as its session grows.
    for name in GROWTH_ROWS:
        assert results[name]["flat"], (name, results[name])
    # A verdict re-analyzes only what the last push changed.
    assert cost["cheap"], cost
    # K-means clusters only the symbol columns that occur.
    assert kmeans["cheap"], kmeans
    # A divider quantum's counts cost what its segments do, not its
    # windows.
    assert counts["flat"], counts
    # A cache window costs one correlogram, on its dominant pair only.
    assert osc["cheap"], osc
