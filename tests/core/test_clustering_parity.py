"""Exact-parity proof: the row-weighted k-means core and the horizon.

``_kmeans_rows`` clusters distinct rows weighted by count, and
:class:`repro.core.clustering.PatternHorizon` keeps per-pattern state
instead of re-clustering every window. Both must be *bit-identical* to
the implementations they replaced, which :mod:`tests.core.
clustering_reference` keeps verbatim: the core's labels and centroids
must be the reference ``kmeans``'s on the expanded integer points, and
the horizon must give the same labels, burst clusters, burst analyses,
burst windows and recurrence, on streams long enough that patterns
leave the horizon, come back and reuse freed slots.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clustering
from repro.core.clustering import PatternHorizon, _kmeans_rows
from repro.errors import DetectionError
from repro.util.strings import discretize_histogram
from tests.core import clustering_reference as ref

pytestmark = pytest.mark.parity

#: Per-bin values the stream templates draw from: empty bins, a few
#: sparse counts and large modes, so some clusters carry bursts.
BIN_VALUES = (0, 0, 0, 1, 2, 7, 30, 400)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 30),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_row_core_matches_kmeans_on_expanded_points(d, m, extra, k, seed):
    """Distinct rows in an order unrelated to the points': every step
    that picks a point (k-means++ draws, empty-cluster re-seed) must pick
    the one the reference picks."""
    gen = np.random.default_rng(seed)
    rows = np.unique(gen.integers(0, 4, size=(m, d)), axis=0)
    m = rows.shape[0]
    inverse = gen.permutation(
        np.concatenate((np.arange(m), gen.integers(0, m, size=extra)))
    )
    points = rows[inverse].astype(np.float64)
    try:
        labels, centroids, _inertia = ref.kmeans(points, k, rng=seed)
    except DetectionError as exc:
        with pytest.raises(DetectionError, match=re.escape(str(exc))):
            _kmeans_rows(
                rows.astype(np.float64), np.bincount(inverse), inverse, k,
                np.random.default_rng(seed), 64,
            )
        return
    row_labels, row_centroids = _kmeans_rows(
        rows.astype(np.float64), np.bincount(inverse), inverse, k,
        np.random.default_rng(seed), 64,
    )
    assert _same_bits(row_labels[inverse], labels)
    assert _same_bits(row_centroids, centroids)


def _assert_analysis_equal(got, expected):
    assert got.n_windows == expected.n_windows
    assert _same_bits(got.cluster_labels, expected.cluster_labels)
    assert got.burst_clusters == expected.burst_clusters
    assert _same_bits(
        got.burst_window_indices, expected.burst_window_indices
    )
    assert got.recurrent == expected.recurrent
    assert len(got.burst_analyses) == len(expected.burst_analyses)
    for a, b in zip(got.burst_analyses, expected.burst_analyses):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(y, np.ndarray):
                assert _same_bits(x, y), field.name
            else:
                assert type(x) is type(y) and x == y, field.name


def _stream(gen, n_windows, n_templates, bins, noise):
    """Windows drawn from a few templates; ``noise`` perturbs one bin."""
    templates = gen.choice(BIN_VALUES, size=(n_templates, bins))
    windows = []
    for _ in range(n_windows):
        hist = templates[gen.integers(0, n_templates)].copy()
        if gen.random() < noise:
            hist[gen.integers(0, bins)] += int(gen.integers(1, 50))
        windows.append(hist.astype(np.int64))
    return windows


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 60),
    st.integers(1, 5),
    st.sampled_from((3, 8, 16)),
    st.sampled_from((0.0, 0.2, 0.6)),
    st.integers(0, 2**32 - 1),
)
def test_horizon_matches_reference_after_every_push(
    max_windows, n_windows, n_templates, bins, noise, seed
):
    """Noisy streams go past four live patterns, so verdicts run k-means
    as well as the path without it."""
    gen = np.random.default_rng(seed)
    windows = _stream(gen, n_windows, n_templates, bins, noise)
    horizon = PatternHorizon(max_windows)
    for i, hist in enumerate(windows):
        horizon.push(hist)
        retained = windows[max(0, i + 1 - max_windows):i + 1]
        assert len(horizon) == len(retained)
        assert _same_bits(horizon.total, np.sum(retained, axis=0))
        _assert_analysis_equal(
            horizon.analyze(),
            ref.analyze_recurrence(retained, max_windows=max_windows),
        )


@pytest.mark.parametrize("k", [None, 2, 3, 5])
def test_all_identical_windows(k):
    """One pattern. With ``k`` None the horizon, at its constants,
    matches the reference. A ``k`` above the one live pattern, which
    ``analyze`` never uses, runs on the kernel against the reference
    ``kmeans`` on the expanded points: k-means++ meets a zero total, and
    every extra cluster is empty and re-seeded."""
    hist = np.zeros(16, dtype=np.int64)
    hist[0], hist[9] = 500, 40
    windows = [hist.copy() for _ in range(24)]
    if k is None:
        horizon = PatternHorizon(16)
        for window in windows:
            horizon.push(window)
        assert horizon.n_patterns == 1
        _assert_analysis_equal(
            horizon.analyze(), ref.analyze_recurrence(windows, max_windows=16)
        )
        return
    rows = discretize_histogram(hist)[None].astype(np.float64)
    inverse = np.zeros(16, dtype=np.intp)
    gen_ref, gen_row = (np.random.default_rng(0) for _ in range(2))
    assert ref._seed(rows, inverse, k, gen_ref) == clustering._seed(
        rows, inverse, k, gen_row
    ) == [0] * k
    assert gen_ref.bit_generator.state == gen_row.bit_generator.state
    gen_ref, gen_row = (np.random.default_rng(0) for _ in range(2))
    labels, centroids, _inertia = ref.kmeans(rows[inverse], k, rng=gen_ref)
    row_labels, row_centroids = _kmeans_rows(
        rows, np.bincount(inverse), inverse, k, gen_row, 64
    )
    assert _same_bits(row_labels[inverse], labels)
    assert _same_bits(row_centroids, centroids)
    assert gen_ref.bit_generator.state == gen_row.bit_generator.state


@pytest.mark.parametrize("seed", [3, 11])
def test_few_patterns_past_the_default_horizon(seed):
    """At most 4 live patterns, so every verdict takes the path without
    k-means, over a stream that runs past the default 512-window horizon
    in phases: patterns leave the horizon, free their slots and return.
    Checked against the reference every 8th push."""
    gen = np.random.default_rng(seed)
    templates = gen.choice(BIN_VALUES, size=(4, 16))
    # Template t alone is empty at bin 1 + t, so no two discretize alike.
    templates[:, 1:5] = 30
    templates[np.arange(4), 1 + np.arange(4)] = 0
    phases = ((0, 1), (1, 2, 3), (0, 3), (2,))
    windows = [
        templates[gen.choice(phase)].astype(np.int64)
        for phase in phases
        for _ in range(300)
    ]
    horizon = PatternHorizon()
    live = set()
    for i, hist in enumerate(windows):
        horizon.push(hist)
        live.add(horizon.n_patterns)
        if i % 8:
            continue
        retained = windows[max(0, i + 1 - horizon.max_windows):i + 1]
        _assert_analysis_equal(
            horizon.analyze(), ref.analyze_recurrence(retained)
        )
    assert max(live) == 4 and len(horizon) == horizon.max_windows
