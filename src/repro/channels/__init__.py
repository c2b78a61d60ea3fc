"""Covert timing channel reproductions (the paper's attack workloads).

Three trojan/spy pairs drive the simulated machine exactly the way the
paper's test channels drive real hardware:

- :mod:`membus` — bus locking via atomic unaligned accesses (Wu et al.).
- :mod:`divider` — SMT integer-divider contention (Wang & Lee style).
- :mod:`cache` — L2 conflict-miss ping-pong over set groups (Xu et al.).

These exist to *exercise the detector*; the library's contribution is
CC-Hunter, not the attacks (whose robustness the paper defers to prior
work).
"""

from repro.channels.base import ChannelConfig, CovertChannel
from repro.channels.cache import CacheCovertChannel
from repro.channels.decoder import decode_by_threshold, decode_ratio
from repro.channels.divider import DividerCovertChannel, MultiplierCovertChannel
from repro.channels.membus import MemoryBusCovertChannel

__all__ = [
    "ChannelConfig",
    "CovertChannel",
    "MemoryBusCovertChannel",
    "DividerCovertChannel",
    "MultiplierCovertChannel",
    "CacheCovertChannel",
    "decode_by_threshold",
    "decode_ratio",
]
