"""Ablation: sensitivity of burst detection to the Δt choice.

Section IV-B step 1 argues Δt must sit between the Poisson regime (too
small: all windows hold 0-1 events) and the normal regime (too large:
bursts and dormancy blur together). This ablation re-analyzes a bus
covert session at Δt from 1/100x to 100x the paper's 100 000 cycles and
shows the likelihood ratio and regime classification across the range —
the paper's value sits in the usable plateau, and the calibration
procedure recovers it from channel parameters alone.
"""

from conftest import record

from repro.analysis.figures import run_channel_session
from repro.core.burst import analyze_histogram
from repro.core.calibration import assess_delta_t, paper_bus_calibration
from repro.util.bitstream import Message
from repro.util.stats import sample_counts_to_histogram


def sweep_delta_t():
    run = run_channel_session(
        "membus", Message.random(16, 1), bandwidth_bps=10.0, seed=1
    )
    horizon = run.quanta * run.machine.quantum_cycles
    tap = run.machine.bus_lock_tap
    rows = []
    for dt in (1_000, 10_000, 100_000, 1_000_000, 10_000_000):
        # Histogrammed without a MonitorSlot: at the small Δt values the
        # session spans millions of windows, which would saturate the
        # slot's 16-bit bin 0.
        counts = tap.window_reader().read_counts(dt, 0, horizon).expand()
        analysis = analyze_histogram(sample_counts_to_histogram(counts, 128))
        regime = assess_delta_t(counts)
        rows.append((dt, analysis.likelihood_ratio, analysis.significant,
                     regime))
    return rows


def test_ablation_delta_t(benchmark):
    rows = benchmark.pedantic(sweep_delta_t, rounds=1, iterations=1)
    lines = []
    for dt, lr, significant, regime in rows:
        marker = "  <- paper's Δt" if dt == 100_000 else ""
        lines.append(
            f"Δt = {dt:>10,} cycles: LR {lr:.3f}, "
            f"significant={significant}, {regime.value}{marker}"
        )
    by_dt = {dt: (lr, sig, regime) for dt, lr, sig, regime in rows}
    # The paper's Δt is in the usable regime with a significant burst mode.
    assert by_dt[100_000][1]
    assert by_dt[100_000][2].name == "USABLE"
    calibration = paper_bus_calibration()
    lines.append(
        f"calibration from channel parameters: {calibration.summary()}"
    )
    assert calibration.delta_t == 100_000
    record("Ablation: Δt sensitivity (memory bus)", *lines)
