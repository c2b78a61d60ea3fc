"""Tests for message encoding and bit-error metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ChannelError
from repro.util.bitstream import (
    Message,
    bit_error_rate,
    bits_from_int,
    int_from_bits,
)


class TestBitsFromInt:
    def test_simple_value(self):
        assert bits_from_int(5, 4) == (0, 1, 0, 1)

    def test_zero(self):
        assert bits_from_int(0, 3) == (0, 0, 0)

    def test_full_width(self):
        assert bits_from_int(255, 8) == (1,) * 8

    def test_too_large_raises(self):
        with pytest.raises(ChannelError):
            bits_from_int(16, 4)

    def test_negative_raises(self):
        with pytest.raises(ChannelError):
            bits_from_int(-1, 4)

    def test_zero_width_raises(self):
        with pytest.raises(ChannelError):
            bits_from_int(0, 0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, value):
        assert int_from_bits(bits_from_int(value, 32)) == value


class TestIntFromBits:
    def test_rejects_non_binary(self):
        with pytest.raises(ChannelError):
            int_from_bits([0, 2, 1])

    def test_empty_is_zero(self):
        assert int_from_bits([]) == 0


class TestBitErrorRate:
    def test_perfect(self):
        assert bit_error_rate([1, 0, 1], [1, 0, 1]) == 0.0

    def test_all_wrong(self):
        assert bit_error_rate([1, 1], [0, 0]) == 1.0

    def test_missing_bits_count_as_errors(self):
        assert bit_error_rate([1, 0, 1, 1], [1, 0]) == 0.5

    def test_extra_received_bits_ignored(self):
        assert bit_error_rate([1], [1, 0, 1]) == 0.0

    def test_empty_sent_raises(self):
        with pytest.raises(ChannelError):
            bit_error_rate([], [1])


class TestMessage:
    def test_rejects_empty(self):
        with pytest.raises(ChannelError):
            Message(())

    def test_rejects_non_binary(self):
        with pytest.raises(ChannelError):
            Message.from_bits([0, 1, 2])

    def test_random_is_reproducible(self):
        assert Message.random(32, 7).bits == Message.random(32, 7).bits

    def test_random_differs_across_seeds(self):
        assert Message.random(64, 1).bits != Message.random(64, 2).bits

    def test_credit_card_is_64_bits(self):
        assert len(Message.random_credit_card(3)) == 64

    def test_ones_count(self):
        assert Message.from_bits([1, 0, 1, 1]).ones == 3

    def test_iteration(self):
        assert list(Message.from_bits([1, 0])) == [1, 0]
