"""k-hash bloom filter with packed storage and vectorized batch kernels.

The practical conflict-miss tracker remembers recently replaced cache tags
in one compact three-hash bloom filter per generation. Membership tests
can report false positives (an un-inserted tag looks present) but never
false negatives — exactly the right failure mode for conflict-miss
detection, where a rare spurious "conflict" only adds noise the detector
already tolerates.

Bits are stored packed, 64 per word, so the scalar hot path tests one
machine word per probe and the batch kernels (:meth:`BloomFilter.add_batch`
/ :meth:`BloomFilter.contains_batch`) run the whole mixer-hash pipeline in
numpy uint64 arithmetic over entire key columns. Probe positions are a
pure function of ``(key, n_bits, n_hashes)``; the scalar path memoizes
them in one process-wide *bounded LRU* cache shared by every filter
instance (all four generations of a tracker probe the same keys at the
same geometry), so hot keys stay cached no matter how large the key
space grows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

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
_U1, _U6, _U29, _U32, _U63 = (
    np.uint64(1),
    np.uint64(6),
    np.uint64(29),
    np.uint64(32),
    np.uint64(63),
)

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - exercised only on old pythons
    def _popcount(word: int) -> int:
        return bin(word).count("1")


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


@lru_cache(maxsize=1 << 17)
def probe_words(key: int, n_bits: int, n_hashes: int) -> Tuple[Tuple[int, int], ...]:
    """Packed-word probes for ``key``: ``((word_index, bit_mask), ...)``.

    The scalar hot-path form of :func:`probe_positions` — one list
    index plus one bitwise AND per probe against the filter's words.
    """
    return tuple(
        (idx >> 6, 1 << (idx & 63))
        for idx in probe_positions(key, n_bits, n_hashes)
    )


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
        self._n_words = (n_bits + 63) >> 6
        #: Packed bit storage: plain Python ints, 64 bits per word. The
        #: list object is stable for the filter's lifetime so hot loops
        #: may bind it once (``clear`` rewrites it in place).
        self._words: List[int] = [0] * self._n_words
        self.insertions = 0

    # ------------------------------------------------------------- scalar

    def _indices(self, key: int) -> Tuple[int, ...]:
        """Probe bit positions for ``key`` (memoized, pure)."""
        return probe_positions(int(key) & _MASK64, self.n_bits, self.n_hashes)

    def add(self, key: int) -> None:
        """Insert ``key`` (an integer tag)."""
        words = self._words
        for w, m in probe_words(int(key) & _MASK64, self.n_bits, self.n_hashes):
            words[w] |= m
        self.insertions += 1

    def contains(self, key: int) -> bool:
        """Membership test: True may be a false positive, False is certain."""
        words = self._words
        for w, m in probe_words(int(key) & _MASK64, self.n_bits, self.n_hashes):
            if not words[w] & m:
                return False
        return True

    # -------------------------------------------------------------- batch

    def add_batch(self, keys) -> None:
        """Insert a whole key column (vectorized ``add``)."""
        idx = hash_indices_batch(keys, self.n_bits, self.n_hashes)
        n_keys = idx.shape[0]
        if n_keys == 0:
            return
        arr = np.array(self._words, dtype=np.uint64)
        w = (idx >> _U6).astype(np.int64).ravel()
        m = (_U1 << (idx & _U63)).ravel()
        np.bitwise_or.at(arr, w, m)
        self._words[:] = arr.tolist()
        self.insertions += int(n_keys)

    def contains_batch(self, keys) -> np.ndarray:
        """Vectorized membership test; returns a boolean array."""
        idx = hash_indices_batch(keys, self.n_bits, self.n_hashes)
        if idx.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        arr = np.array(self._words, dtype=np.uint64)
        w = (idx >> _U6).astype(np.int64)
        present = (arr[w] >> (idx & _U63)) & _U1
        return present.all(axis=1)

    # -------------------------------------------------------------- state

    def assign_bits(self, bits: np.ndarray, insertions: int) -> None:
        """Replace the bit array with ``bits``, one boolean per bit.

        The word list is rewritten in place, as :meth:`clear` does.
        """
        padded = np.zeros(self._n_words * 64, dtype=bool)
        padded[: self.n_bits] = bits
        words = np.packbits(padded, bitorder="little").view("<u8")
        self._words[:] = words.tolist()
        self.insertions = insertions

    def clear(self) -> None:
        """Flash-clear all bits (one-cycle operation in hardware).

        Probe memoization survives: positions depend only on keys. The
        word list is rewritten in place so loops holding a reference to
        it observe the clear.
        """
        words = self._words
        for i in range(len(words)):
            words[i] = 0
        self.insertions = 0

    @property
    def _bits(self) -> np.ndarray:
        """Unpacked boolean copy of the bit array, bit ``i`` at index ``i``."""
        packed = np.array(self._words, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(packed, bitorder="little")[: self.n_bits]
        return bits.astype(bool)

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set — a proxy for false-positive pressure."""
        ones = 0
        for word in self._words:
            ones += _popcount(word)
        return ones / self.n_bits

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
