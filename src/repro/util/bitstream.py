"""Covert message representation.

A covert channel carries a sequence of bits. The paper drives all three
channels with a randomly generated 64-bit "credit card number"; this module
provides that message type plus encode/decode helpers and the bit-error-rate
metric used to validate that the simulated channels actually communicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.errors import ChannelError
from repro.util.rng import RngLike, make_rng


def bits_from_int(value: int, width: int) -> Tuple[int, ...]:
    """Big-endian bit tuple of ``value`` in ``width`` bits.

    >>> bits_from_int(5, 4)
    (0, 1, 0, 1)
    """
    if width <= 0:
        raise ChannelError(f"bit width must be positive, got {width}")
    if value < 0 or value >= (1 << width):
        raise ChannelError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def int_from_bits(bits: Sequence[int]) -> int:
    """Inverse of :func:`bits_from_int`.

    >>> int_from_bits((0, 1, 0, 1))
    5
    """
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ChannelError(f"bits must be 0 or 1, got {bit!r}")
        value = (value << 1) | bit
    return value


def bit_error_rate(sent: Sequence[int], received: Sequence[int]) -> float:
    """Fraction of positions where ``received`` differs from ``sent``.

    Missing trailing bits in ``received`` count as errors, so a spy that
    decodes nothing scores 1.0.
    """
    if not sent:
        raise ChannelError("cannot compute BER of an empty message")
    errors = 0
    for i, bit in enumerate(sent):
        if i >= len(received) or received[i] != bit:
            errors += 1
    return errors / len(sent)


@dataclass(frozen=True)
class Message:
    """An immutable bit message transmitted over a covert channel."""

    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ChannelError("message must contain at least one bit")
        for bit in self.bits:
            if bit not in (0, 1):
                raise ChannelError(f"message bits must be 0 or 1, got {bit!r}")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    @property
    def ones(self) -> int:
        """Number of 1 bits (bus/divider channels contend only on 1s)."""
        return sum(self.bits)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Message":
        """Build a message from any iterable of 0/1 values."""
        return cls(tuple(int(b) for b in bits))

    @classmethod
    def random(cls, n_bits: int, rng: RngLike = None) -> "Message":
        """Uniformly random ``n_bits``-bit message."""
        gen = make_rng(rng)
        return cls(tuple(int(b) for b in gen.integers(0, 2, size=n_bits)))

    @classmethod
    def random_credit_card(cls, rng: RngLike = None) -> "Message":
        """The paper's canonical payload: a random 64-bit credit card number."""
        return cls.random(64, rng)
