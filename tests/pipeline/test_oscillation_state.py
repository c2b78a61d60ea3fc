"""The oscillation analyzer's state stays bounded however long it runs.

Its verdict reads running tallies instead of a list of every window's
analysis. These tests pin the tallies, and the first detection an eager
session records from them, to the list-based computation they replace,
and pin the analyzer's memory to a constant per window.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import UnitVerdict
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    ConflictRecords,
    DetectionSession,
    OscillationAnalyzer,
    QuantumObservation,
)
from repro.pipeline import analyzers as analyzers_module
from repro.pipeline.analyzers import RECENT_ANALYSES

_QUANTUM = 100_000


def _observation(quantum, replacers, victims):
    n = len(replacers)
    t0 = quantum * _QUANTUM
    times = t0 + np.sort(
        np.random.default_rng(quantum).choice(_QUANTUM, size=n, replace=False)
    )
    return QuantumObservation(
        quantum=quantum,
        t0=t0,
        t1=t0 + _QUANTUM,
        conflicts=ConflictRecords(
            times=times.astype(np.int64),
            replacers=np.asarray(replacers, dtype=np.int16),
            victims=np.asarray(victims, dtype=np.int16),
        ),
    )


def _pingpong(quantum, sets=32, rounds=8):
    """A trojan/spy prime-probe ping-pong between contexts 0 and 2:
    ``sets`` conflict misses each way, ``rounds`` times — the square-wave
    identifier train of Fig. 8."""
    reps = ([0] * sets + [2] * sets) * rounds
    vics = ([2] * sets + [0] * sets) * rounds
    return _observation(quantum, reps, vics)


def _random_quantum(rng, quantum):
    """A square wave of random half-period with random label flips, on
    a random context pair, plus same-context and stray records. Up to
    2,400 records, so windows down to a twentieth of the quantum can
    clear the analyzer's 64-event floor."""
    n = int(rng.integers(0, 2_400))
    half = int(rng.integers(1, 40))
    flip = float(rng.choice([0.0, 0.02, 0.2, 0.5]))
    a, b = (int(c) for c in rng.choice(4, size=2, replace=False))
    wave = (np.arange(n) // half) % 2 == 0
    wave ^= rng.random(n) < flip
    reps = np.where(wave, a, b)
    vics = np.where(wave, b, a)
    strays = int(rng.integers(0, 20))
    reps = np.concatenate([reps, rng.integers(0, 4, size=strays)])
    vics = np.concatenate([vics, rng.integers(0, 4, size=strays)])
    return _observation(quantum, reps, vics)


class TestTalliesMatchAnalysisList:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.sampled_from([1.0, 0.25, 0.05]),
    )
    def test_verdict_and_first_detection(self, seed, n_quanta, fraction):
        rng = np.random.default_rng(seed)
        session = DetectionSession(
            track_detection_latency=True, metrics=MetricsRegistry()
        )
        analyzer = session.add_analyzer(
            OscillationAnalyzer(
                window_fraction=fraction, metrics=session.metrics
            )
        )
        analyses, quanta = [], []
        real = analyzers_module.analyze_autocorrelogram

        def recording(*args, **kwargs):
            analysis = real(*args, **kwargs)
            analyses.append(analysis)
            return analysis

        with mock.patch.object(
            analyzers_module, "analyze_autocorrelogram", recording
        ):
            for quantum in range(n_quanta):
                session.push_quantum(_random_quantum(rng, quantum))
                quanta.extend([quantum] * (len(analyses) - len(quanta)))

        # The list-based computation the tallies replace.
        significant = [a for a in analyses if a.significant]
        periods = [a.dominant_period for a in significant if a.dominant_period]
        assert analyzer.verdict() == UnitVerdict(
            unit="cache",
            method="oscillation",
            detected=len(significant) >= 1,
            quanta_analyzed=analyzer.windows_analyzed,
            oscillating_windows=len(significant),
            max_peak=max((a.max_peak for a in analyses), default=0.0),
            dominant_period=float(np.median(periods)) if periods else None,
        )
        first = next(
            (q for a, q in zip(analyses, quanta) if a.significant), None
        )
        assert session.first_detection_quantum("cache") == first
        recent = analyses[-RECENT_ANALYSES:]
        assert len(analyzer.analyses) == len(recent)
        assert all(a is b for a, b in zip(analyzer.analyses, recent))


class TestLongSessionMemory:
    def test_state_flat_over_2000_quanta(self):
        analyzer = OscillationAnalyzer(metrics=MetricsRegistry())
        quanta = [_pingpong(q) for q in range(2)]
        tracemalloc.start()
        try:
            for q in range(1_000):
                analyzer.push(quanta[q % 2])
            peak_at_1000 = tracemalloc.get_traced_memory()[1]
            for q in range(1_000, 2_000):
                analyzer.push(quanta[q % 2])
            peak_at_2000 = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        verdict = analyzer.verdict()
        assert verdict.detected
        assert verdict.oscillating_windows == 2_000
        assert peak_at_2000 - peak_at_1000 < 64 * 1024
