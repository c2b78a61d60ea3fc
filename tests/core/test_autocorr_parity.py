"""Exact-parity proof: one correlogram per window vs per-pair estimators.

:func:`repro.core.autocorr.binary_autocorrelogram` autocorrelates a 0/1
train in one call; :class:`OscillationAnalyzer` calls it once per
window, on the dominant pair only. Both must be *bit-identical* to what
they replaced, which :mod:`tests.core.autocorr_reference` keeps
verbatim: the running estimator fed the train in one ``push_batch``,
and the window path that fed every cross-context pair its own estimator
and read the dominant pair's. Trains span both of the estimator's
kernels (a full correlation up to ``4·(max_lag+1)`` events, per-lag
dot products above) and trains no longer than the lag range.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import autocorr
from repro.core.autocorr import binary_autocorrelogram
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    ConflictRecords,
    OscillationAnalyzer,
    QuantumObservation,
)
from repro.pipeline import analyzers as analyzers_module
from repro.pipeline.analyzers import MAX_LAG, MIN_TRAIN_EVENTS
from tests.core import autocorr_reference as ref

pytestmark = pytest.mark.parity


def _reference(labels, max_lag):
    est = ref.RunningAutocorrelogram(max_lag)
    est.push_batch(labels)
    return est.correlogram()


def _train(seed, n):
    """A 0/1 train: a square wave of random half-period with random
    label flips, or independent labels of random density."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        half = int(rng.integers(1, 300))
        wave = (np.arange(n) // half) % 2 == 0
        flips = rng.random(n) < float(rng.choice([0.0, 0.02, 0.3]))
        return (wave ^ flips).astype(np.int64)
    return (rng.random(n) < rng.random()).astype(np.int64)


@st.composite
def _sizes(draw):
    """(n, max_lag) with n ≤ max_lag, between, or above 4·(max_lag+1)."""
    max_lag = draw(st.integers(0, 1_200))
    regime = draw(st.sampled_from(("short", "full", "per-lag")))
    if regime == "short":
        n = draw(st.integers(2, max(2, max_lag + 1)))
    elif regime == "full":
        n = draw(st.integers(2, min(6_000, 4 * (max_lag + 1))))
    else:
        n = draw(st.integers(min(6_000, 4 * (max_lag + 1) + 1), 6_000))
    return n, max_lag


class TestKernelParity:
    @settings(max_examples=80, deadline=None)
    @given(_sizes(), st.integers(0, 2**32 - 1))
    @example((2, 0), 0)
    @example((1_001, 1_000), 1)
    @example((4_004, 1_000), 2)
    @example((4_005, 1_000), 3)
    @example((6_000, 1_200), 4)
    @example((300, 1_200), 5)
    def test_equals_running_estimator(self, size, seed):
        n, max_lag = size
        labels = _train(seed, n)
        assert np.array_equal(
            binary_autocorrelogram(labels, max_lag),
            _reference(labels, max_lag),
        )

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize(
        "n, max_lag", [(2, 0), (2, 5), (50, 10), (4_005, 1_000)]
    )
    def test_constant_trains(self, value, n, max_lag):
        labels = np.full(n, value, dtype=np.int64)
        got = binary_autocorrelogram(labels, max_lag)
        assert np.array_equal(got, _reference(labels, max_lag))
        assert np.array_equal(got, np.ones(min(max_lag, n - 1) + 1))

    @settings(max_examples=20, deadline=None)
    @given(_sizes(), st.integers(0, 2**32 - 1))
    def test_float64_products_equal_float32(self, size, seed):
        """Trains longer than float32's exact-integer range take float64
        products; both give the same exact sums."""
        n, max_lag = size
        labels = _train(seed, n)
        narrow = binary_autocorrelogram(labels, max_lag)
        with mock.patch.object(autocorr, "_FLOAT32_EXACT", 0):
            wide = binary_autocorrelogram(labels, max_lag)
        assert np.array_equal(narrow, wide)


_QUANTUM = 20_000


def _quantum(rng, quantum):
    """One quantum's conflict records: several cross-context pairs (two
    of them of equal size half the time), same-context records, all
    interleaved in time. A pair holds up to 2,000 records, so its train
    clears ``MIN_TRAIN_EVENTS`` in windows down to a twentieth of the
    quantum."""
    reps, vics = [], []
    n_pairs = int(rng.integers(1, 5))
    sizes = rng.integers(0, 2_000, size=n_pairs)
    if n_pairs > 1 and rng.random() < 0.5:
        sizes[1] = sizes[0]
    for size in sizes:
        a, b = (int(c) for c in rng.choice(8, size=2, replace=False))
        half = int(rng.integers(1, 40))
        wave = (np.arange(size) // half) % 2 == 0
        wave ^= rng.random(size) < float(rng.choice([0.0, 0.1]))
        reps.append(np.where(wave, a, b))
        vics.append(np.where(wave, b, a))
    same = rng.integers(0, 8, size=int(rng.integers(0, 60)))
    reps.append(same)
    vics.append(same)
    # Interleave the groups in time, each keeping its own order.
    owner = np.concatenate([np.full(len(r), i) for i, r in enumerate(reps)])
    rng.shuffle(owner)
    replacers = np.empty(owner.size, dtype=np.int16)
    victims = np.empty(owner.size, dtype=np.int16)
    for i, (r, v) in enumerate(zip(reps, vics)):
        replacers[owner == i] = r
        victims[owner == i] = v
    t0 = quantum * _QUANTUM
    times = t0 + np.sort(
        rng.choice(_QUANTUM, size=owner.size, replace=False)
    )
    return QuantumObservation(
        quantum=quantum,
        t0=t0,
        t1=t0 + _QUANTUM,
        conflicts=ConflictRecords(
            times=times.astype(np.int64),
            replacers=replacers,
            victims=victims,
        ),
    )


def _per_pair_windows(observations, fraction):
    """Every window's (train length, acf) through the per-pair path."""
    out = []
    for obs in observations:
        recs = obs.conflicts
        width = max(1, int(round((obs.t1 - obs.t0) * fraction)))
        for start in range(obs.t0, obs.t1, width):
            lo, hi = np.searchsorted(recs.times, [start, start + width])
            out.append(ref.pair_window_acf(
                recs.replacers[lo:hi], recs.victims[lo:hi],
                MAX_LAG, MIN_TRAIN_EVENTS,
            ))
    return out


class TestAnalyzerParity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.sampled_from([1.0, 0.5, 0.25, 0.05]),
    )
    def test_window_acfs_equal_per_pair_path(self, seed, n_quanta, fraction):
        rng = np.random.default_rng(seed)
        observations = [_quantum(rng, q) for q in range(n_quanta)]
        metrics = MetricsRegistry()
        analyzer = OscillationAnalyzer(
            window_fraction=fraction, metrics=metrics
        )
        acfs = []
        real = analyzers_module.binary_autocorrelogram

        def recording(labels, lag):
            acf = real(labels, lag)
            acfs.append((labels.size, acf))
            return acf

        with mock.patch.object(
            analyzers_module, "binary_autocorrelogram", recording
        ):
            for obs in observations:
                analyzer.push(obs)

        windows = _per_pair_windows(observations, fraction)
        expected = [(n, acf) for n, acf in windows if acf is not None]
        assert analyzer.windows_analyzed == len(windows)
        assert [n for n, _ in acfs] == [n for n, _ in expected]
        for (_, got), (_, want) in zip(acfs, expected):
            assert np.array_equal(got, want)
        skipped = metrics.counter(
            "cchunter_analyzer_windows_skipped_total", labels={"unit": "cache"}
        )
        assert skipped.value == len(windows) - len(expected)
