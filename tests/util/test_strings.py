"""Tests for histogram discretization (clustering front-end)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DetectionError
from repro.util.strings import SYMBOL_LEVELS, discretize_histogram


class TestDiscretize:
    def test_empty_bins_are_zero(self):
        symbols = discretize_histogram([0, 10, 0, 1000])
        assert symbols[0] == 0
        assert symbols[2] == 0

    def test_max_bin_gets_top_level(self):
        symbols = discretize_histogram([0, 1, 1000])
        assert symbols[2] == 3

    def test_log_scale_separates_magnitudes(self):
        symbols = discretize_histogram([0, 2, 40, 4000])
        assert symbols[1] < symbols[2] < symbols[3]

    def test_uniform_nonzero_maps_to_top(self):
        symbols = discretize_histogram([5, 5, 5])
        assert symbols.tolist() == [3, 3, 3]

    def test_all_zero(self):
        assert discretize_histogram([0, 0, 0]).tolist() == [0, 0, 0]

    def test_negative_raises(self):
        with pytest.raises(DetectionError):
            discretize_histogram([-1, 2])

    def test_empty_raises(self):
        with pytest.raises(DetectionError):
            discretize_histogram([])

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=128))
    def test_symbols_in_range(self, hist):
        symbols = discretize_histogram(hist)
        assert symbols.min() >= 0
        assert symbols.max() <= SYMBOL_LEVELS - 1 == 3
        # Zero bins always map to symbol 0; non-zero bins never do.
        for value, symbol in zip(hist, symbols):
            assert (symbol == 0) == (value == 0)
