"""jobs=1 vs jobs=4 equivalence for every rewired figure sweep.

The determinism contract of ``repro.exec``: per-trial seeds are pure
functions of the trial parameters and results are gathered in canonical
order, so a sweep returns *bit-identical* results no matter how many
worker processes run it. These tests hold each rewired figure to that —
same likelihood ratios, same verdicts, same histograms/correlograms,
same ordering — and run in tier-1 (marked ``equivalence``).
"""

import numpy as np
import pytest

from repro.analysis import figures as F

pytestmark = pytest.mark.equivalence

JOBS = 4


def assert_same_dataclass(a, b, exact_arrays=True):
    """Field-by-field bitwise equality of two result dataclasses."""
    assert type(a) is type(b)
    for name in vars(a):
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), name
        elif hasattr(va, "__dataclass_fields__"):
            assert_same_dataclass(va, vb)
        else:
            assert va == vb, name


class TestFig10Equivalence:
    def test_bandwidth_sweep_identical(self):
        kwargs = dict(bandwidths=(10.0,), n_bits=6, cache_sets=32)
        serial = F.fig10_bandwidth_sweep(**kwargs)
        pooled = F.fig10_bandwidth_sweep(jobs=JOBS, **kwargs)
        assert len(serial) == len(pooled) == 3
        for a, b in zip(serial, pooled):
            assert_same_dataclass(a, b)


class TestFig11Equivalence:
    def test_window_scaling_identical(self):
        kwargs = dict(
            fractions=(1.0, 0.25), n_bits=2, bandwidth_bps=2.0,
            cache_sets=64,
        )
        serial = F.fig11_window_scaling(**kwargs)
        pooled = F.fig11_window_scaling(jobs=JOBS, **kwargs)
        assert [vars(p) for p in serial] == [vars(p) for p in pooled]
        assert [p.fraction for p in serial] == [1.0, 0.25]


class TestFig12Equivalence:
    def test_message_sweep_identical(self):
        kwargs = dict(n_messages=2, n_bits=6, cache_sets=64)
        serial = F.fig12_message_sweep(**kwargs)
        pooled = F.fig12_message_sweep(jobs=JOBS, **kwargs)
        assert len(serial) == len(pooled) == 3
        for a, b in zip(serial, pooled):
            assert a.kind == b.kind
            assert a.likelihood_ratios == b.likelihood_ratios
            assert a.cache_peaks == b.cache_peaks
            assert np.array_equal(a.mean_hist, b.mean_hist)
            assert np.array_equal(a.min_hist, b.min_hist)
            assert np.array_equal(a.max_hist, b.max_hist)


class TestFig13Equivalence:
    def test_set_sweep_identical(self):
        kwargs = dict(set_counts=(64, 32), n_bits=6)
        serial = F.fig13_cache_set_sweep(**kwargs)
        pooled = F.fig13_cache_set_sweep(jobs=JOBS, **kwargs)
        assert [r.n_sets for r in serial] == [64, 32]
        for a, b in zip(serial, pooled):
            assert a.peak_lag == b.peak_lag
            assert a.peak_value == b.peak_value
            assert np.array_equal(a.acf, b.acf)
            assert np.array_equal(a.times, b.times)
            assert a.analysis.significant == b.analysis.significant


class TestFig14Equivalence:
    def test_false_alarms_identical(self):
        from repro.workloads.spec import gobmk, sjeng
        from repro.workloads.stream import stream

        pairs = [(gobmk, sjeng), (stream, stream)]
        serial = F.fig14_false_alarms(pairs=pairs, n_quanta=3)
        pooled = F.fig14_false_alarms(pairs=pairs, n_quanta=3, jobs=JOBS)
        assert [r.pair for r in serial] == [
            ("gobmk", "sjeng"), ("stream", "stream")
        ]
        for a, b in zip(serial, pooled):
            assert_same_dataclass(a, b)
