"""Tests for spy-side decoding helpers."""

import pytest

from repro.channels.decoder import decode_by_threshold, decode_ratio
from repro.errors import ChannelError


class TestThresholdDecode:
    def test_basic(self):
        assert decode_by_threshold([300.0, 150.0, 290.0], 250.0) == [1, 0, 1]

    def test_boundary_is_zero(self):
        assert decode_by_threshold([250.0], 250.0) == [0]

    def test_empty(self):
        assert decode_by_threshold([], 100.0) == []


class TestRatioDecode:
    def test_basic(self):
        assert decode_ratio([400.0, 150.0], [200.0, 300.0]) == [1, 0]

    def test_equal_means_zero(self):
        assert decode_ratio([200.0], [200.0]) == [0]

    def test_length_mismatch(self):
        with pytest.raises(ChannelError):
            decode_ratio([1.0], [1.0, 2.0])

    def test_bad_denominator(self):
        with pytest.raises(ChannelError):
            decode_ratio([1.0], [0.0])
