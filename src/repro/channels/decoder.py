"""Spy-side decoding helpers.

The spy accumulates latency samples per bit window and infers the bit from
their statistics: a mean above a threshold for contention channels (bus,
divider), or a group-latency ratio above/below 1 for the cache channel.
These helpers are shared by the channel implementations and by analysis
code reproducing Figures 2, 3 and 7.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ChannelError


def decode_by_threshold(mean_latencies: Sequence[float], threshold: float
                        ) -> List[int]:
    """One bit per window: 1 if the window's mean latency exceeds threshold.

    >>> decode_by_threshold([300.0, 150.0, 290.0], threshold=250.0)
    [1, 0, 1]
    """
    return [1 if m > threshold else 0 for m in mean_latencies]


def decode_ratio(
    g1_means: Sequence[float], g0_means: Sequence[float]
) -> List[int]:
    """Cache-channel decode: 1 when G1 accesses took longer than G0.

    A ratio above 1 means the G1 sets missed (the trojan replaced them),
    hence a '1' was sent; below 1 means the G0 sets missed.
    """
    if len(g1_means) != len(g0_means):
        raise ChannelError("group mean sequences must have equal length")
    bits = []
    for g1, g0 in zip(g1_means, g0_means):
        if g0 <= 0:
            raise ChannelError(f"non-positive G0 mean latency: {g0}")
        bits.append(1 if g1 / g0 > 1.0 else 0)
    return bits
