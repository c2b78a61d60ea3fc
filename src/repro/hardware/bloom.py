"""k-hash bloom filter: one boolean column of bits per filter.

The practical conflict-miss tracker remembers recently replaced cache tags
in one compact three-hash bloom filter per generation. Membership tests
can report false positives (an un-inserted tag looks present) but never
false negatives — exactly the right failure mode for conflict-miss
detection, where a rare spurious "conflict" only adds noise the detector
already tolerates.

A filter's bits are one boolean numpy column, :attr:`BloomFilter.bits`,
bit ``i`` at index ``i``. The generation tracker's settle reads the
columns whole, hashes whole key columns with :func:`hash_indices_batch`
(the mixer pipeline in numpy uint64 arithmetic) and overwrites the
columns in place. Probe positions are a pure function of
``(key, n_bits, n_hashes)``; the scalar :meth:`BloomFilter.add` /
:meth:`BloomFilter.contains` take them from :func:`probe_positions`, the
same pipeline one key at a time, memoized in one process-wide *bounded
LRU* cache shared by every filter instance, so hot keys stay cached no
matter how large the key space grows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import HardwareError

# Distinct odd multipliers give the k hash functions independent mixing.
_MIXERS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA6B27D4EB4F,
)
_MASK64 = (1 << 64) - 1
_MIXERS_U64 = np.array(_MIXERS, dtype=np.uint64)
_U29, _U32 = np.uint64(29), np.uint64(32)


@lru_cache(maxsize=1 << 17)
def probe_positions(key: int, n_bits: int, n_hashes: int) -> Tuple[int, ...]:
    """Bit positions probed for ``key`` in an ``(n_bits, n_hashes)`` filter.

    Memoized in a bounded LRU shared across all filters: eviction drops
    the *least recently used* keys, so a huge cold key space can no
    longer flush the hot covert-channel tags out of the cache.
    """
    probes = []
    for i in range(n_hashes):
        h = (key * _MIXERS[i]) & _MASK64
        h ^= h >> 29
        h = (h * _MIXERS[(i + 1) % len(_MIXERS)]) & _MASK64
        h ^= h >> 32
        probes.append(h % n_bits)
    return tuple(probes)


def hash_indices_batch(keys, n_bits: int, n_hashes: int) -> np.ndarray:
    """Vectorized mixer pipeline: ``(n_keys, n_hashes)`` bit positions.

    Bit-for-bit the same arithmetic as :func:`probe_positions`, computed
    in numpy uint64 over the whole key column (unsigned overflow wraps
    exactly like the scalar ``& _MASK64``).
    """
    arr = np.asarray(keys)
    if arr.dtype.kind not in "iu":
        arr = np.array([int(k) & _MASK64 for k in keys], dtype=np.uint64)
    k = arr.astype(np.uint64, copy=False)
    out = np.empty((k.size, n_hashes), dtype=np.uint64)
    nb = np.uint64(n_bits)
    for i in range(n_hashes):
        h = k * _MIXERS_U64[i]
        h ^= h >> _U29
        h = h * _MIXERS_U64[(i + 1) % len(_MIXERS)]
        h ^= h >> _U32
        out[:, i] = h % nb
    return out


class BloomFilter:
    """A fixed-size bit array with ``n_hashes`` deterministic hash probes."""

    def __init__(self, n_bits: int, n_hashes: int = 3):
        if n_bits <= 0:
            raise HardwareError(f"bloom filter needs positive size, got {n_bits}")
        if not 1 <= n_hashes <= len(_MIXERS):
            raise HardwareError(
                f"n_hashes must be in 1..{len(_MIXERS)}, got {n_hashes}"
            )
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        #: The bits, one boolean per bit. The column object is stable for
        #: the filter's lifetime: writers (``clear``, the tracker's
        #: settle) overwrite it in place.
        self.bits = np.zeros(n_bits, dtype=bool)
        self.insertions = 0

    def _indices(self, key: int) -> Tuple[int, ...]:
        """Probe bit positions for ``key`` (memoized, pure)."""
        return probe_positions(int(key) & _MASK64, self.n_bits, self.n_hashes)

    def add(self, key: int) -> None:
        """Insert ``key`` (an integer tag)."""
        bits = self.bits
        for i in self._indices(key):
            bits[i] = True
        self.insertions += 1

    def contains(self, key: int) -> bool:
        """Membership test: True may be a false positive, False is certain."""
        bits = self.bits
        for i in self._indices(key):
            if not bits[i]:
                return False
        return True

    def clear(self) -> None:
        """Flash-clear all bits (one-cycle operation in hardware).

        Probe memoization survives: positions depend only on keys.
        """
        self.bits[:] = False
        self.insertions = 0

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set — a proxy for false-positive pressure."""
        return np.count_nonzero(self.bits) / self.n_bits

    def false_positive_rate(self) -> float:
        """Theoretical FP probability at the current fill ratio."""
        return float(self.fill_ratio**self.n_hashes)

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.n_bits}, hashes={self.n_hashes}, "
            f"fill={self.fill_ratio:.3f})"
        )
