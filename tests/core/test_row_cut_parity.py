"""Exact-parity proof: k-means over rows cut to the columns that occur.

``repro.core.clustering._rows`` cuts the symbol rows of at most 128
columns to the shortest multiple-of-8 prefix (at least 8 wide) that
holds every non-zero symbol, and ``_kmeans_rows`` updates all centroids
with one product. Both must be *bit-identical* to the full-row,
one-centroid-at-a-time implementations that
:mod:`tests.core.clustering_reference` keeps verbatim: the same labels,
the same centroids in the kept columns (the reference's dropped ones are
exactly +0.0), the same k-means++ picks and the same generator state
afterwards, on rows built to tie or nearly tie.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clustering
from repro.core.clustering import PatternHorizon
from repro.errors import DetectionError
from tests.core import clustering_reference as ref
from tests.core.test_clustering_parity import _assert_analysis_equal, _same_bits

pytestmark = pytest.mark.parity


def _band_rows(gen, width, lo, hi, n_templates, m):
    """Up to ``m`` distinct integer rows, in an order unrelated to their
    sort order, with symbols only in columns ``lo:hi``: a few templates,
    each copied with up to two symbols moved by one, so that many rows
    lie at equal or nearly equal distances from each other."""
    templates = gen.integers(0, 4, size=(n_templates, hi - lo))
    rows = np.zeros((m, width), dtype=np.int64)
    for r in range(m):
        band = templates[gen.integers(0, n_templates)].copy()
        for _ in range(int(gen.integers(0, 3))):
            col = int(gen.integers(0, band.size))
            band[col] = np.clip(band[col] + gen.choice((-1, 1)), 0, 3)
        rows[r, lo:hi] = band
    rows = np.unique(rows, axis=0)
    return rows[gen.permutation(rows.shape[0])]


def _cut_width(rows):
    """The width ``_rows`` should keep, computed column by column."""
    width = rows.shape[1]
    if width > clustering.PAIRWISE_BLOCK:
        return width
    end = max((c + 1 for c in range(width) if rows[:, c].any()), default=0)
    cut = 8
    while cut < end:
        cut += 8
    return min(cut, width)


def _distances(rows, centroids):
    """Squared distances, in the form Lloyd's step computes them."""
    return ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _check_rows(rows, inverse, k, seed):
    """Cut rows against the reference's full rows: rows, seeding and
    k-means, bit for bit, with the generator states after each."""
    keys = [row.tobytes() for row in rows]
    full = ref._rows(keys)
    cut = clustering._rows(keys)
    assert cut.shape == (rows.shape[0], _cut_width(rows))
    width = cut.shape[1]
    assert cut.flags.c_contiguous
    assert _same_bits(cut, full[:, :width])
    assert not full[:, width:].any()

    gen_ref, gen_cut = (np.random.default_rng(seed) for _ in range(2))
    assert ref._seed(full, inverse, k, gen_ref) == clustering._seed(
        cut, inverse, k, gen_cut
    )
    assert gen_ref.bit_generator.state == gen_cut.bit_generator.state

    gen_ref, gen_cut = (np.random.default_rng(seed) for _ in range(2))
    counts = np.bincount(inverse)
    try:
        labels, centroids = ref._kmeans_rows(
            full, counts, inverse, k, gen_ref, 64
        )
    except DetectionError as exc:
        with pytest.raises(DetectionError, match=re.escape(str(exc))):
            clustering._kmeans_rows(cut, counts, inverse, k, gen_cut, 64)
        return width
    got_labels, got_centroids = clustering._kmeans_rows(
        cut, counts, inverse, k, gen_cut, 64
    )
    assert _same_bits(got_labels, labels)
    assert _same_bits(got_centroids, centroids[:, :width])
    # Labels rarely show a regrouped sum, since distances must nearly
    # tie; the distances to the final centroids show it in their last
    # bits.
    assert _same_bits(
        _distances(cut, got_centroids), _distances(full, centroids)
    )
    dropped = centroids[:, width:]
    assert dropped.tobytes() == np.zeros_like(dropped).tobytes()  # +0.0
    assert gen_ref.bit_generator.state == gen_cut.bit_generator.state
    return width


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 127),
    st.integers(1, 128),
    st.integers(1, 6),
    st.integers(2, 60),
    st.integers(0, 80),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_cut_rows_match_full_rows(lo, span, n_templates, m, extra, k, seed):
    """128-column rows with symbols in a random band, so the cut keeps
    8 to 128 columns; each row stands for at least one point, and the
    points come in an order unrelated to the rows'."""
    gen = np.random.default_rng(seed)
    hi = min(128, lo + span)
    rows = _band_rows(gen, 128, lo, hi, n_templates, m)
    m = rows.shape[0]
    inverse = gen.permutation(
        np.concatenate((np.arange(m), gen.integers(0, m, size=extra)))
    )
    _check_rows(rows, inverse, k, seed)


@pytest.mark.parametrize("width", [3, 5, 7, 129, 136, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_widths_outside_the_cut_keep_every_column(width, seed):
    """Below 8 columns there is nothing to cut, and above 128 numpy
    splits a sum in halves, so a prefix would regroup it: both keep
    every column, even with symbols only in the first few."""
    gen = np.random.default_rng(seed)
    rows = _band_rows(gen, width, 0, 3, 3, 24)
    inverse = gen.permutation(
        np.concatenate((np.arange(rows.shape[0]), gen.integers(0, 3, 40)))
    )
    assert _check_rows(rows, inverse, 4, seed) == width


@pytest.mark.parametrize(
    "lo,hi,width",
    [(0, 0, 8), (0, 1, 8), (0, 8, 8), (0, 9, 16), (5, 16, 16),
     (100, 121, 128), (120, 128, 128)],
)
def test_cut_width_edges(lo, hi, width):
    """Symbols only up to column ``hi - 1`` keep ``width`` columns:
    all-zero rows keep 8, a last symbol in column 7 keeps 8 and one in
    column 8 keeps 16."""
    gen = np.random.default_rng(7)
    rows = np.zeros((8, 128), dtype=np.int64)
    rows[1:, lo:hi] = gen.integers(1, 4, size=(7, hi - lo))
    rows = np.unique(rows, axis=0)
    inverse = gen.permutation(
        np.concatenate((np.arange(rows.shape[0]), np.zeros(5, np.int64)))
    )
    assert _cut_width(rows) == width
    assert _check_rows(rows, inverse, 2, 0) == width


def _benign_window(gen):
    """A served benign tenant's window histogram: 50 Δt windows of
    2 + Poisson(2) events each, so only bins 2-12 or so are non-zero."""
    return np.bincount(2 + gen.poisson(2.0, size=50), minlength=128)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benign_shaped_horizon_past_the_default_horizon(seed):
    """The served benign tenant's horizon: symbols only in bins 2-12,
    well over four live patterns, so every verdict cuts its rows to 16
    columns and runs k-means. The stream runs past the 512-window
    horizon, and the result is checked against the per-window reference
    every 8th push."""
    gen = np.random.default_rng(seed)
    windows = [_benign_window(gen).astype(np.int64) for _ in range(600)]
    horizon = PatternHorizon()
    for i, hist in enumerate(windows):
        horizon.push(hist)
        if i % 8 != 7:
            continue
        retained = windows[max(0, i + 1 - horizon.max_windows):i + 1]
        _assert_analysis_equal(
            horizon.analyze(), ref.analyze_recurrence(retained)
        )
    keys = [horizon._keys[s] for s in sorted(horizon._slot_of.values())]
    assert horizon.n_patterns > 4 and len(horizon) == horizon.max_windows
    assert clustering._rows(keys).shape == (horizon.n_patterns, 16)
