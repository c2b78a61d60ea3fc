"""Figure 11: finer observation windows for the 0.1 bps cache channel.

Paper: at 0.75x / 0.5x / 0.25x of the OS time quantum, the 0.1 bps cache
channel's autocorrelograms show increasingly clear repetitive peaks —
finer-grained analysis detects low-bandwidth channels more effectively.
Reproduced shape: the best peak grows as the window shrinks (0.656 →
0.740 → 0.755 → 0.819), and the quarter-quantum window finds the most
significant windows. The session is replayed through the detector's
analyzer, whose windows restart at each quantum, so the count is not
monotone (5 → 7 → 5 → 12): the 0.75x row closes a 0.75x and a 0.25x
window per quantum.
"""

from conftest import record

from repro.analysis.figures import fig11_window_scaling


def test_fig11_window_scaling(benchmark):
    points = benchmark.pedantic(
        lambda: fig11_window_scaling(
            seed=1, fractions=(1.0, 0.75, 0.5, 0.25), bandwidth_bps=0.1,
            n_bits=3,
        ),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"window = {p.fraction:.2f} x quantum: best peak {p.best_peak:.3f}, "
        f"{p.significant_windows} significant windows of {p.windows_analyzed}"
        for p in points
    ]
    full = points[0]
    quarter = points[-1]
    assert quarter.significant_windows >= full.significant_windows
    assert quarter.best_peak >= full.best_peak - 0.05
    record("Figure 11: 0.1 bps cache channel, window scaling", *lines)
