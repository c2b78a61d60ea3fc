"""One experiment driver per figure in the paper's evaluation.

Every ``figN_*`` function runs the corresponding experiment on the
simulated machine and returns a result object holding the plotted series
plus the summary statistics the paper quotes. Sizes default to
bench-friendly values; pass larger ``n_bits`` / ``n_messages`` /
``n_quanta`` for paper-scale runs (the benchmarks print both the series
summaries and the headline numbers).

The sweep figures (10-14) are built from *independent* trials, so each
takes ``jobs`` (worker processes; 1 = in-process serial, 0 = every CPU)
and an optional ``progress(done, total)`` callback, and fans its trials
out through :class:`repro.exec.TrialRunner`. Results are bit-identical
for every ``jobs`` value — trial seeds are pure functions of the trial
parameters and results are gathered in canonical order (see
docs/PERFORMANCE.md; tests/exec/test_equivalence.py enforces this).

See DESIGN.md for the experiment index mapping figures to modules, and
EXPERIMENTS.md for measured-vs-paper values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.channels.divider import DividerCovertChannel, MultiplierCovertChannel
from repro.channels.membus import MemoryBusCovertChannel
from repro.core.autocorr import binary_autocorrelogram
from repro.core.burst import BurstAnalysis, analyze_histogram
from repro.core.detector import AuditUnit, CCHunter
from repro.core.event_train import dominant_pair_series
from repro.core.oscillation import OscillationAnalysis, analyze_autocorrelogram
from repro.errors import ReproError
from repro.exec import TrialRunner, TrialSpec
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.analyzers import MAX_LAG, OscillationAnalyzer
from repro.pipeline.source import ConflictRecords, QuantumObservation
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from repro.util.stats import poisson_pmf, sample_counts_to_histogram
from repro.workloads.base import ActivityProfile, workload_process
from repro.workloads.noise import background_noise_processes


# --------------------------------------------------------------------------
# shared experiment plumbing
# --------------------------------------------------------------------------


@dataclass
class ChannelRun:
    """A completed covert-channel session with its detector attached."""

    machine: Machine
    hunter: CCHunter
    channel: object
    quanta: int

    @property
    def ber(self) -> float:
        return self.channel.bit_error_rate()


_CHANNELS = {
    "membus": MemoryBusCovertChannel,
    "divider": DividerCovertChannel,
    "multiplier": MultiplierCovertChannel,
    "cache": CacheCovertChannel,
}

_AUDITS = {
    "membus": AuditUnit.MEMORY_BUS,
    "divider": AuditUnit.DIVIDER,
    "multiplier": AuditUnit.MULTIPLIER,
    "cache": AuditUnit.CACHE,
}


def run_channel_session(
    kind: str,
    message: Message,
    bandwidth_bps: float = 10.0,
    seed: int = 1,
    noise: bool = True,
    window_fraction: float = 1.0,
    max_quanta: Optional[int] = None,
    sinks=(),
    track_detection_latency: bool = False,
    injectors=(),
    capture_evidence: bool = False,
    metrics=None,
    **channel_kwargs,
) -> ChannelRun:
    """Run one covert transmission under CC-Hunter audit.

    ``kind`` is 'membus', 'divider' or 'cache'. The session covers the
    whole transmission (or ``max_quanta`` if given), with the paper's
    "at least three other active processes" unless ``noise=False``.
    ``sinks`` (verdict sinks) receive per-quantum verdict updates while
    the session runs — the streaming pipeline's online view.
    ``injectors`` (see :mod:`repro.faults`) perturb the observation
    stream before it reaches the analyzers — the robustness drills'
    entry point into a live session.
    """
    if kind not in _CHANNELS:
        raise ReproError(f"unknown channel kind {kind!r}")
    machine = Machine(seed=seed, metrics=metrics)
    hunter = CCHunter(
        machine,
        window_fraction=window_fraction,
        sinks=sinks,
        track_detection_latency=track_detection_latency,
        injectors=injectors,
        capture_evidence=capture_evidence,
        metrics=metrics,
    )
    config = ChannelConfig(message=message, bandwidth_bps=bandwidth_bps)
    channel = _CHANNELS[kind](machine, config, **channel_kwargs)
    if kind in ("divider", "multiplier"):
        hunter.audit(_AUDITS[kind], core=0)
        channel.deploy(core=0)
    else:
        hunter.audit(_AUDITS[kind])
        channel.deploy()
    quanta = channel.quanta_needed()
    if max_quanta is not None:
        quanta = min(quanta, max_quanta)
    quanta = max(1, quanta)
    if noise:
        avoid = (channel.trojan_ctx, channel.spy_ctx)
        background_noise_processes(
            machine, n_quanta=quanta, seed=seed, avoid_contexts=avoid
        )
    machine.run_quanta(quanta)
    return ChannelRun(machine, hunter, channel, quanta)


def aggregate_histogram(hunter: CCHunter, unit: AuditUnit,
                        core: Optional[int] = None) -> np.ndarray:
    """Sum a burst monitor's per-quantum histograms over the whole run."""
    hists = hunter.burst_histograms(unit, core=core)
    return np.sum(hists, axis=0)


# --------------------------------------------------------------------------
# Figures 2 and 3 — spy-observed latency series
# --------------------------------------------------------------------------


@dataclass
class LatencySeriesResult:
    """Series of spy-observed latencies over a message (Figures 2-3)."""

    latencies: np.ndarray
    message: Message
    decode_threshold: float
    ber: float
    mean_when_one: float
    mean_when_zero: float

    @property
    def separation(self) -> float:
        """Mean latency gap between '1' and '0' bits (cycles)."""
        return self.mean_when_one - self.mean_when_zero


def _latency_series(run: ChannelRun) -> LatencySeriesResult:
    channel = run.channel
    per_bit = [np.mean(s) for s in channel.spy_samples]
    bits = list(channel.message)
    ones = [m for m, b in zip(per_bit, bits) if b == 1]
    zeros = [m for m, b in zip(per_bit, bits) if b == 0]
    return LatencySeriesResult(
        latencies=channel.sample_latencies(),
        message=channel.message,
        decode_threshold=channel.decode_threshold,
        ber=run.ber,
        mean_when_one=float(np.mean(ones)) if ones else 0.0,
        mean_when_zero=float(np.mean(zeros)) if zeros else 0.0,
    )


def fig2_membus_latency(
    seed: int = 1, n_bits: int = 64, bandwidth_bps: float = 10.0
) -> LatencySeriesResult:
    """Figure 2: average memory-access latency seen by the bus-channel spy.

    Contended (locked) bus during '1' bits raises the spy's average
    latency; '0' bits leave it at the uncontended baseline.
    """
    message = Message.random(n_bits, seed)
    run = run_channel_session("membus", message, bandwidth_bps, seed=seed)
    return _latency_series(run)


def fig3_divider_latency(
    seed: int = 1, n_bits: int = 64, bandwidth_bps: float = 10.0
) -> LatencySeriesResult:
    """Figure 3: average loop-iteration latency seen by the divider spy."""
    message = Message.random(n_bits, seed)
    run = run_channel_session("divider", message, bandwidth_bps, seed=seed)
    return _latency_series(run)


# --------------------------------------------------------------------------
# Figure 4 — event trains
# --------------------------------------------------------------------------


@dataclass
class EventTrainResult:
    """Indicator-event trains for the two contention channels (Figure 4)."""

    bus_times: np.ndarray
    divider_times: np.ndarray
    window: Tuple[int, int]
    message: Message

    def burst_fraction(self, times: np.ndarray, bit_period: int) -> float:
        """Fraction of events landing in '1'-bit periods (bursts)."""
        if times.size == 0:
            return 0.0
        bit_idx = np.minimum(times // bit_period, len(self.message) - 1)
        bits = np.asarray(self.message.bits)[bit_idx]
        return float(bits.mean())


def fig4_event_trains(
    seed: int = 1, n_bits: int = 16, bandwidth_bps: float = 10.0
) -> EventTrainResult:
    """Figure 4: event trains showing burst patterns during '1' bits."""
    message = Message.random(n_bits, seed)
    bus_run = run_channel_session("membus", message, bandwidth_bps, seed=seed)
    div_run = run_channel_session("divider", message, bandwidth_bps, seed=seed)
    horizon = bus_run.quanta * bus_run.machine.quantum_cycles
    bus_times = bus_run.machine.bus_lock_tap.window_reader().read(0, horizon)
    div_times = div_run.machine.divider_wait_tap_for(0).materialize_times(
        0, horizon, max_events=20_000
    )
    return EventTrainResult(
        bus_times=bus_times,
        divider_times=div_times,
        window=(0, horizon),
        message=message,
    )


# --------------------------------------------------------------------------
# Figure 5 — methodology illustration
# --------------------------------------------------------------------------


@dataclass
class MethodologyResult:
    """Event train -> density histogram -> Poisson reference (Figure 5)."""

    window_counts: np.ndarray
    histogram: np.ndarray
    poisson_reference: np.ndarray


def fig5_methodology(seed: int = 1, n_windows: int = 512) -> MethodologyResult:
    """Figure 5: how a bursty train departs from the Poisson reference.

    A synthetic train mixes Poisson background with injected bursts; the
    histogram shows the second mode the Poisson fit cannot explain.
    """
    rng = np.random.default_rng(seed)
    background = rng.poisson(0.4, size=n_windows)
    counts = background.copy()
    burst_windows = rng.choice(n_windows, size=n_windows // 16, replace=False)
    counts[burst_windows] += rng.integers(15, 25, size=burst_windows.size)
    hist = sample_counts_to_histogram(counts, 128)
    lam = counts.mean()
    reference = poisson_pmf(np.arange(128), lam) * n_windows
    return MethodologyResult(
        window_counts=counts, histogram=hist, poisson_reference=reference
    )


# --------------------------------------------------------------------------
# Figure 6 — event density histograms for the contention channels
# --------------------------------------------------------------------------


@dataclass
class DensityHistogramResult:
    """Aggregate density histograms plus burst analyses (Figure 6)."""

    bus_hist: np.ndarray
    bus_analysis: BurstAnalysis
    divider_hist: np.ndarray
    divider_analysis: BurstAnalysis

    @property
    def bus_burst_bin(self) -> int:
        """Density bin of the bus channel's burst mode (paper: ~#20)."""
        return _mode_bin(self.bus_hist)

    @property
    def divider_burst_bin(self) -> int:
        """Density bin of the divider's burst mode (paper: ~#96)."""
        return _mode_bin(self.divider_hist)


def _mode_bin(hist: np.ndarray) -> int:
    """Highest-frequency bin excluding the zero-density bin."""
    if hist[1:].sum() == 0:
        return 0
    return int(1 + np.argmax(hist[1:]))


def fig6_density_histograms(
    seed: int = 1, n_bits: int = 16, bandwidth_bps: float = 10.0
) -> DensityHistogramResult:
    """Figure 6: density histograms with the covert burst mode.

    Δt = 100 000 cycles for the bus, 500 cycles for the divider; the '1'
    bits produce a clearly separated second distribution (bin ~20 for the
    bus, bins ~84-105 peaking near 96 for the divider).
    """
    message = Message.random(n_bits, seed)
    bus_run = run_channel_session("membus", message, bandwidth_bps, seed=seed)
    div_run = run_channel_session("divider", message, bandwidth_bps, seed=seed)
    bus_hist = aggregate_histogram(bus_run.hunter, AuditUnit.MEMORY_BUS)
    div_hist = aggregate_histogram(div_run.hunter, AuditUnit.DIVIDER, core=0)
    return DensityHistogramResult(
        bus_hist=bus_hist,
        bus_analysis=analyze_histogram(bus_hist),
        divider_hist=div_hist,
        divider_analysis=analyze_histogram(div_hist),
    )


# --------------------------------------------------------------------------
# Figure 7 — cache channel latency ratios
# --------------------------------------------------------------------------


@dataclass
class CacheRatioResult:
    """Per-bit G1/G0 latency ratios (Figure 7)."""

    ratios: np.ndarray
    message: Message
    ber: float

    @property
    def mean_ratio_ones(self) -> float:
        bits = np.asarray(self.message.bits[: self.ratios.size])
        sel = self.ratios[bits == 1]
        return float(sel.mean()) if sel.size else 0.0

    @property
    def mean_ratio_zeros(self) -> float:
        bits = np.asarray(self.message.bits[: self.ratios.size])
        sel = self.ratios[bits == 0]
        return float(sel.mean()) if sel.size else 0.0


def fig7_cache_ratios(
    seed: int = 1,
    n_bits: int = 64,
    bandwidth_bps: float = 100.0,
    n_sets: int = 512,
) -> CacheRatioResult:
    """Figure 7: G1/G0 access-time ratios decode the transmitted bits."""
    message = Message.random(n_bits, seed)
    run = run_channel_session(
        "cache", message, bandwidth_bps, seed=seed, n_sets_total=n_sets
    )
    return CacheRatioResult(
        ratios=run.channel.latency_ratios(), message=message, ber=run.ber
    )


# --------------------------------------------------------------------------
# Figure 8 — conflict-miss train and autocorrelogram
# --------------------------------------------------------------------------


@dataclass
class CacheAutocorrResult:
    """Labeled conflict train and its correlogram (Figure 8, Figure 13)."""

    times: np.ndarray
    identifiers: np.ndarray
    acf: np.ndarray
    analysis: OscillationAnalysis
    n_sets: int

    @property
    def peak_lag(self) -> int:
        """Lag of the highest correlogram peak (paper: ~533 for 512 sets)."""
        if self.analysis.peak_lags.size == 0:
            return 0
        top = int(np.argmax(self.analysis.peak_heights))
        return int(self.analysis.peak_lags[top])

    @property
    def peak_value(self) -> float:
        return self.analysis.max_peak


def fig8_cache_autocorrelogram(
    seed: int = 1,
    n_bits: int = 24,
    bandwidth_bps: float = 200.0,
    n_sets: int = 512,
) -> CacheAutocorrResult:
    """Figure 8: the conflict-miss train oscillates at the set-count lag.

    'T→S' (trojan replaces spy) and 'S→T' phases alternate with one event
    per swept set, so the autocorrelogram peaks near lag = total sets used
    (512), shifted slightly by noise events from other contexts.
    """
    message = Message.random(n_bits, seed)
    run = run_channel_session(
        "cache", message, bandwidth_bps, seed=seed, n_sets_total=n_sets
    )
    horizon = run.quanta * run.machine.quantum_cycles
    times, reps, vics = run.machine.cache_miss_tap.window_reader().read(
        0, horizon
    )
    # As in the detector, autocorrelate the dominant cross-context pair's
    # event series ('S→T' = 0, 'T→S' = 1). Noise conflicts involving the
    # pair still land in the series (they perturb it, shifting the peak
    # slightly off the set count, as the paper observes).
    labels, idx, _pair = dominant_pair_series(reps, vics)
    acf = binary_autocorrelogram(labels, MAX_LAG)
    return CacheAutocorrResult(
        times=times[idx],
        identifiers=labels,
        acf=acf,
        analysis=analyze_autocorrelogram(acf),
        n_sets=n_sets,
    )


# --------------------------------------------------------------------------
# Figure 10 — bandwidth sweep over all three channels
# --------------------------------------------------------------------------


@dataclass
class BandwidthPoint:
    """One (channel, bandwidth) cell of Figure 10."""

    kind: str
    bandwidth_bps: float
    likelihood_ratio: Optional[float]
    detected: bool
    max_peak: Optional[float]
    ber: float
    quanta: int


def _message_with_ones(n_bits: int, seed: int, min_ones: int = 2) -> Message:
    """Random message guaranteed to carry at least ``min_ones`` 1-bits.

    Short low-bandwidth test messages must still contain enough '1's to
    exercise the contention path (an all-zero message transmits silence).
    """
    message = Message.random(n_bits, seed)
    if message.ones >= min(min_ones, n_bits):
        return message
    bits = list(message.bits)
    for i in range(0, len(bits), 2):
        bits[i] = 1
    return Message.from_bits(bits)


def _fig10_trial(
    kind: str,
    bandwidth_bps: float,
    n_bits: int,
    seed: int,
    cache_sets: int,
) -> BandwidthPoint:
    """One (channel, bandwidth) cell of Figure 10; picklable trial."""
    message = _message_with_ones(n_bits, seed)
    kwargs = {"n_sets_total": cache_sets} if kind == "cache" else {}
    run = run_channel_session(kind, message, bandwidth_bps, seed=seed, **kwargs)
    verdict = run.hunter.report().verdicts[0]
    if kind == "cache":
        lr = None
        peak = verdict.max_peak
    else:
        unit = _AUDITS[kind]
        core = 0 if kind == "divider" else None
        agg = aggregate_histogram(run.hunter, unit, core=core)
        lr = analyze_histogram(agg).likelihood_ratio
        peak = None
    return BandwidthPoint(
        kind=kind,
        bandwidth_bps=bandwidth_bps,
        likelihood_ratio=lr,
        detected=verdict.detected,
        max_peak=peak,
        ber=run.ber,
        quanta=run.quanta,
    )


def fig10_bandwidth_sweep(
    seed: int = 1,
    bandwidths: Sequence[float] = (0.1, 10.0, 1000.0),
    n_bits_low_bw: int = 4,
    n_bits: int = 16,
    cache_sets: int = 256,
    min_quanta_burst: int = 3,
    jobs: int = 1,
    progress=None,
    timeout_s: Optional[float] = None,
) -> List[BandwidthPoint]:
    """Figure 10: detection across 0.1 / 10 / 1000 bps.

    Burst channels keep likelihood ratios >= 0.9 at every bandwidth; the
    0.1 bps cache channel shows weak full-window autocorrelation (see
    Figure 11 for the fix). At high bandwidths a short message finishes
    within one quantum, so the burst channels transmit enough bits to
    cover ``min_quanta_burst`` quanta (recurrence needs several windows —
    a real channel would simply keep transmitting).
    """
    quantum_seconds = 0.1
    params = []
    for bw in bandwidths:
        bits = n_bits_low_bw if bw < 1.0 else n_bits
        burst_bits = max(
            bits, int(bw * quantum_seconds * min_quanta_burst)
        )
        for kind in ("membus", "divider", "cache"):
            params.append({
                "kind": kind,
                "bandwidth_bps": bw,
                "n_bits": bits if kind == "cache" else burst_bits,
            })
    spec = TrialSpec(
        fn=_fig10_trial,
        common={"seed": seed, "cache_sets": cache_sets},
        key="fig10",
        timeout_s=timeout_s,
    )
    return TrialRunner(jobs=jobs, progress=progress).run_trials(
        spec, params=params
    )


# --------------------------------------------------------------------------
# Figure 11 — finer observation windows for the 0.1 bps cache channel
# --------------------------------------------------------------------------


@dataclass
class WindowScalingPoint:
    """One observation-window size of Figure 11."""

    fraction: float
    best_peak: float
    significant_windows: int
    windows_analyzed: int


def _fig11_fraction(
    fraction: float,
    times: np.ndarray,
    reps: np.ndarray,
    vics: np.ndarray,
    quantum: int,
    n_quanta: int,
) -> WindowScalingPoint:
    """Replay one session's conflict records through a cache analyzer
    whose windows are ``fraction`` of a quantum."""
    analyzer = OscillationAnalyzer(
        window_fraction=fraction, metrics=MetricsRegistry()
    )
    bounds = np.searchsorted(times, np.arange(n_quanta + 1) * quantum)
    for q in range(n_quanta):
        lo, hi = bounds[q], bounds[q + 1]
        analyzer.push(QuantumObservation(
            quantum=q, t0=q * quantum, t1=(q + 1) * quantum,
            conflicts=ConflictRecords(times[lo:hi], reps[lo:hi], vics[lo:hi]),
        ))
    verdict = analyzer.verdict()
    return WindowScalingPoint(
        fraction=fraction,
        best_peak=verdict.max_peak,
        significant_windows=verdict.oscillating_windows,
        windows_analyzed=verdict.quanta_analyzed,
    )


def fig11_window_scaling(
    seed: int = 1,
    fractions: Sequence[float] = (1.0, 0.75, 0.5, 0.25),
    bandwidth_bps: float = 0.1,
    n_bits: int = 3,
    cache_sets: int = 256,
    jobs: int = 1,
    progress=None,
    timeout_s: Optional[float] = None,
) -> List[WindowScalingPoint]:
    """Figure 11: shrinking the window sharpens low-bandwidth detection.

    At 0.1 bps the covert conflict clusters occupy slivers of each
    quantum, so full-window trains are noise-diluted; fractional windows
    isolate the clusters and the repetitive peaks emerge. One session is
    simulated in-process; each window size is a trial that replays its
    conflict records, quantum by quantum, through the detector's own
    :class:`~repro.pipeline.analyzers.OscillationAnalyzer`, so a point is
    the cache verdict a live session at that fraction reports.
    """
    message = _message_with_ones(n_bits, seed)
    run = run_channel_session(
        "cache", message, bandwidth_bps, seed=seed, n_sets_total=cache_sets
    )
    horizon = run.quanta * run.machine.quantum_cycles
    times, reps, vics = run.machine.cache_miss_tap.window_reader().read(
        0, horizon
    )
    spec = TrialSpec(
        fn=_fig11_fraction,
        common={
            "times": times,
            "reps": reps,
            "vics": vics,
            "quantum": run.machine.quantum_cycles,
            "n_quanta": run.quanta,
        },
        key="fig11",
        timeout_s=timeout_s,
    )
    return TrialRunner(jobs=jobs, progress=progress).run_trials(
        spec, params=[{"fraction": f} for f in fractions]
    )


# --------------------------------------------------------------------------
# Figure 12 — encoded message patterns
# --------------------------------------------------------------------------


@dataclass
class MessageSweepResult:
    """Histogram spread over random 64-bit messages (Figure 12)."""

    kind: str
    mean_hist: np.ndarray
    min_hist: np.ndarray
    max_hist: np.ndarray
    likelihood_ratios: List[float]
    cache_peaks: List[float]

    @property
    def min_likelihood_ratio(self) -> float:
        return min(self.likelihood_ratios) if self.likelihood_ratios else 0.0


def _fig12_trial(
    kind: str,
    index: int,
    seed: int,
    n_bits: int,
    bandwidth_bps: float,
    cache_bandwidth_bps: float,
    cache_sets: int,
):
    """One (channel, message) trial of Figure 12; picklable.

    Returns ``("peak", max_acf_peak)`` for the cache channel and
    ``("hist", aggregate_histogram, likelihood_ratio)`` for the burst
    channels — only the per-trial statistics travel back to the parent,
    never the machine or the hunter.
    """
    message = Message.random(n_bits, seed * 1000 + index)
    if kind == "cache":
        run = run_channel_session(
            kind,
            message,
            cache_bandwidth_bps,
            seed=seed + index,
            n_sets_total=cache_sets,
        )
        return ("peak", run.hunter.report().verdict_for("cache").max_peak)
    run = run_channel_session(kind, message, bandwidth_bps, seed=seed + index)
    unit = _AUDITS[kind]
    core = 0 if kind == "divider" else None
    agg = aggregate_histogram(run.hunter, unit, core=core)
    return ("hist", agg, analyze_histogram(agg).likelihood_ratio)


def fig12_message_sweep(
    seed: int = 1,
    n_messages: int = 8,
    n_bits: int = 16,
    bandwidth_bps: float = 10.0,
    kinds: Sequence[str] = ("membus", "divider", "cache"),
    cache_bandwidth_bps: float = 200.0,
    cache_sets: int = 256,
    jobs: int = 1,
    progress=None,
    timeout_s: Optional[float] = None,
) -> List[MessageSweepResult]:
    """Figure 12: random message patterns barely move the signatures.

    The paper uses 256 random 64-bit messages; pass ``n_messages=256,
    n_bits=64`` for the full-scale run (and ``jobs=0`` to spread it over
    every CPU). Burst-channel likelihood ratios stay above 0.9; cache
    correlogram deviations are insignificant.
    """
    spec = TrialSpec(
        fn=_fig12_trial,
        common={
            "seed": seed,
            "n_bits": n_bits,
            "bandwidth_bps": bandwidth_bps,
            "cache_bandwidth_bps": cache_bandwidth_bps,
            "cache_sets": cache_sets,
        },
        key="fig12",
        timeout_s=timeout_s,
    )
    params = [
        {"kind": kind, "index": i}
        for kind in kinds
        for i in range(n_messages)
    ]
    trials = TrialRunner(jobs=jobs, progress=progress).run_trials(
        spec, params=params
    )
    results = []
    for k, kind in enumerate(kinds):
        # TrialFailure results (timeouts etc. under timeout_s) are falsy
        # and simply drop out of the aggregates.
        per_kind = [t for t in trials[k * n_messages : (k + 1) * n_messages] if t]
        hists = [t[1] for t in per_kind if t[0] == "hist"]
        lrs = [t[2] for t in per_kind if t[0] == "hist"]
        peaks = [t[1] for t in per_kind if t[0] == "peak"]
        if hists:
            stack = np.stack(hists)
            results.append(
                MessageSweepResult(
                    kind=kind,
                    mean_hist=stack.mean(axis=0),
                    min_hist=stack.min(axis=0),
                    max_hist=stack.max(axis=0),
                    likelihood_ratios=lrs,
                    cache_peaks=[],
                )
            )
        else:
            empty = np.zeros(128)
            results.append(
                MessageSweepResult(
                    kind=kind,
                    mean_hist=empty,
                    min_hist=empty,
                    max_hist=empty,
                    likelihood_ratios=[],
                    cache_peaks=peaks,
                )
            )
    return results


# --------------------------------------------------------------------------
# Figure 13 — cache channel set-count sweep
# --------------------------------------------------------------------------


def fig13_cache_set_sweep(
    seed: int = 1,
    set_counts: Sequence[int] = (256, 128, 64),
    bandwidth_bps: float = 1000.0,
    n_bits: int = 16,
    jobs: int = 1,
    progress=None,
    timeout_s: Optional[float] = None,
) -> List[CacheAutocorrResult]:
    """Figure 13: the oscillation wavelength tracks the sets used.

    Peaks reach ~0.95 and sit at (or, with noise, slightly above) the
    number of sets used for communication.
    """
    spec = TrialSpec(
        fn=fig8_cache_autocorrelogram,
        common={
            "seed": seed, "n_bits": n_bits, "bandwidth_bps": bandwidth_bps,
        },
        key="fig13",
        timeout_s=timeout_s,
    )
    return TrialRunner(jobs=jobs, progress=progress).run_trials(
        spec, params=[{"n_sets": n} for n in set_counts]
    )


# --------------------------------------------------------------------------
# Figure 14 — false-alarm study
# --------------------------------------------------------------------------


@dataclass
class FalseAlarmResult:
    """One benchmark pairing of the false-alarm study (Figure 14)."""

    pair: Tuple[str, str]
    bus_hist: np.ndarray
    bus_lr: float
    divider_hist: np.ndarray
    divider_lr: float
    cache_max_peak: float
    bus_detected: bool
    divider_detected: bool
    cache_detected: bool

    @property
    def any_alarm(self) -> bool:
        return self.bus_detected or self.divider_detected or self.cache_detected


def _fig14_trial(
    profile_a: ActivityProfile,
    profile_b: ActivityProfile,
    seed: int,
    n_quanta: int,
) -> FalseAlarmResult:
    """Screen one benign workload pair under full audit; picklable."""
    machine = Machine(seed=seed)
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.MEMORY_BUS)
    hunter.audit(AuditUnit.DIVIDER, core=0)
    cache_hunter = CCHunter(machine)
    cache_hunter.audit(AuditUnit.CACHE)
    machine.spawn(
        workload_process(profile_a, machine, n_quanta, seed=1, instance=0),
        ctx=0,
    )
    machine.spawn(
        workload_process(profile_b, machine, n_quanta, seed=2, instance=1),
        ctx=1,
    )
    machine.run_quanta(n_quanta)
    bus_verdict, div_verdict = hunter.report().verdicts
    cache_verdict = cache_hunter.report().verdicts[0]
    bus_hist = aggregate_histogram(hunter, AuditUnit.MEMORY_BUS)
    div_hist = aggregate_histogram(hunter, AuditUnit.DIVIDER, core=0)
    return FalseAlarmResult(
        pair=(profile_a.name, profile_b.name),
        bus_hist=bus_hist,
        bus_lr=analyze_histogram(bus_hist).likelihood_ratio,
        divider_hist=div_hist,
        divider_lr=analyze_histogram(div_hist).likelihood_ratio,
        cache_max_peak=cache_verdict.max_peak or 0.0,
        bus_detected=bus_verdict.detected,
        divider_detected=div_verdict.detected,
        cache_detected=cache_verdict.detected,
    )


def default_benign_pairs() -> List[Tuple[ActivityProfile, ActivityProfile]]:
    """The paper's representative benign pairings (Figure 14)."""
    from repro.workloads.filebench import mailserver, webserver
    from repro.workloads.spec import bzip2, gobmk, h264ref, sjeng
    from repro.workloads.stream import stream

    return [
        (gobmk, sjeng),
        (bzip2, h264ref),
        (stream, stream),
        (mailserver, mailserver),
        (webserver, webserver),
    ]


def fig14_false_alarms(
    pairs: Optional[Sequence[Tuple[ActivityProfile, ActivityProfile]]] = None,
    seed: int = 9,
    n_quanta: int = 8,
    jobs: int = 1,
    progress=None,
    timeout_s: Optional[float] = None,
) -> List[FalseAlarmResult]:
    """Figure 14: benign pairs must not trip any detector.

    Default pairs reproduce the paper's representative subset: gobmk+sjeng
    (bus-heavy), bzip2+h264ref (division-heavy), stream x2, mailserver x2
    (the weak bins-5-8 second mode), webserver x2 (brief periodicity).
    """
    if pairs is None:
        pairs = default_benign_pairs()
    spec = TrialSpec(
        fn=_fig14_trial,
        common={"seed": seed, "n_quanta": n_quanta},
        key="fig14",
        timeout_s=timeout_s,
    )
    return TrialRunner(jobs=jobs, progress=progress).run_trials(
        spec,
        params=[{"profile_a": a, "profile_b": b} for a, b in pairs],
    )


# --------------------------------------------------------------------------
# Detection summary (paper's headline claims)
# --------------------------------------------------------------------------


@dataclass
class DetectionSummary:
    """Headline result: all channels detected, zero false alarms."""

    channel_detections: Dict[str, bool] = field(default_factory=dict)
    false_alarms: int = 0
    pairs_tested: int = 0

    @property
    def all_detected(self) -> bool:
        return all(self.channel_detections.values())


def _detection_trial(kind: str, seed: int, n_bits: int) -> bool:
    """Run one covert channel under audit; True when detected."""
    message = Message.random(n_bits, seed)
    kwargs = {"n_sets_total": 256} if kind == "cache" else {}
    bw = 200.0 if kind == "cache" else 10.0
    run = run_channel_session(kind, message, bw, seed=seed, **kwargs)
    return run.hunter.report().verdicts[0].detected


def detection_summary(
    seed: int = 1, n_bits: int = 16, n_quanta_benign: int = 6, jobs: int = 1
) -> DetectionSummary:
    """Run every channel and every benign pair; tally the verdicts."""
    summary = DetectionSummary()
    kinds = ("membus", "divider", "cache")
    spec = TrialSpec(
        fn=_detection_trial,
        common={"seed": seed, "n_bits": n_bits},
        key="detection_summary",
    )
    detections = TrialRunner(jobs=jobs).run_trials(
        spec, params=[{"kind": kind} for kind in kinds]
    )
    summary.channel_detections.update(zip(kinds, detections))
    for res in fig14_false_alarms(
        seed=seed + 1, n_quanta=n_quanta_benign, jobs=jobs
    ):
        summary.pairs_tested += 1
        if res.any_alarm:
            summary.false_alarms += 1
    return summary
