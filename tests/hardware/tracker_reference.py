"""References for the generation conflict-miss tracker's settle.

Two earlier designs, kept verbatim:

- :class:`GenerationConflictTracker` is the tracker from before the
  shared cache logged its accesses and settled them: a generation
  bitmask and per-generation member sets per block, driven per access.
- :class:`DictGenerationConflictTracker` is the tracker from before its
  last-touch epochs moved into key-sorted columns: a ``Dict[int, int]``
  of epochs, the scalar protocol (``on_access``, ``on_replacement``,
  ``check_recent_eviction``) and a ``settle`` that reads and rewrites
  the dict.

The parity tests drive caches holding them through one per-access
``access`` call per element (:mod:`tests.sim.cache_reference`), or feed
the dict tracker the same settle logs, and compare the walk and settle
of :mod:`repro.sim.resources.cache` and
:mod:`repro.hardware.conflict_tracker` with them bit for bit.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import HardwareError
from repro.hardware.bloom import BloomFilter, hash_indices_batch


class GenerationConflictTracker:
    """The paper's practical generation-bit + bloom-filter tracker."""

    def __init__(
        self,
        capacity: int,
        generations: int = 4,
        bloom_bits_per_generation: Optional[int] = None,
        bloom_hashes: int = 3,
    ):
        if capacity <= 0:
            raise HardwareError(f"tracker capacity must be positive: {capacity}")
        if generations < 2:
            raise HardwareError(f"need at least 2 generations, got {generations}")
        self.capacity = capacity
        self.generations = generations
        #: New-generation threshold T = capacity / generations (paper: N/4,
        #: "roughly 25% capacity in an ideal LRU stack").
        self.threshold = max(1, capacity // generations)
        bits = bloom_bits_per_generation or capacity
        self._blooms = [
            BloomFilter(bits, bloom_hashes) for _ in range(generations)
        ]
        #: Per-resident-block generation bitmask (bit g set = accessed in g).
        self._gen_bits: Dict[int, int] = {}
        #: Per-generation membership: every key whose generation bit ``g``
        #: was set since generation ``g`` last opened (superset: replaced
        #: keys linger until the generation recycles). Makes
        #: :meth:`_advance_generation` proportional to one generation's
        #: touches instead of every resident block.
        self._members: List[Set[int]] = [set() for _ in range(generations)]
        self._current = 0
        self._accessed_in_current = 0
        self.generation_advances = 0

    @property
    def current_generation(self) -> int:
        return self._current

    def on_access(self, key: int) -> None:
        bit = 1 << self._current
        mask = self._gen_bits.get(key, 0)
        if mask & bit:
            return  # already counted in this generation
        self._gen_bits[key] = mask | bit
        self._members[self._current].add(key)
        self._accessed_in_current += 1
        if self._accessed_in_current >= self.threshold:
            self._advance_generation()

    def _advance_generation(self) -> None:
        """Open a new generation, discarding the oldest.

        With ``G`` generations used as a circular buffer, the slot after the
        current one holds the *oldest* generation; flash-clear its bloom
        filter and its column in every member block's generation bits, then
        make it current (the bottom of the approximate LRU stack falls off).
        Only the cleared generation's membership set is walked — keys that
        never touched it are untouched, and members replaced since simply
        miss in ``_gen_bits`` and are skipped.
        """
        new_gen = (self._current + 1) % self.generations
        cleared_bit = ~(1 << new_gen)
        gen_bits = self._gen_bits
        for key in self._members[new_gen]:
            mask = gen_bits.get(key)
            if mask is None:
                continue  # replaced while this generation was live
            remaining = mask & cleared_bit
            if remaining:
                gen_bits[key] = remaining
            else:
                del gen_bits[key]
        self._members[new_gen] = set()
        self._blooms[new_gen].clear()
        self._current = new_gen
        self._accessed_in_current = 0
        self.generation_advances += 1

    def latest_generation_of(self, key: int) -> Optional[int]:
        """Most recent generation in which ``key`` was accessed, if resident."""
        mask = self._gen_bits.get(key, 0)
        if mask == 0:
            return None
        # Scan generations from current backwards (circularly).
        for back in range(self.generations):
            g = (self._current - back) % self.generations
            if mask & (1 << g):
                return g
        return None

    def on_replacement(self, key: int) -> None:
        """Record the replaced tag in the bloom filter of its latest generation."""
        latest = self.latest_generation_of(key)
        if latest is None:
            # Block was never touched within the live generations (its bits
            # were all flash-cleared); it is old enough that re-fetching it
            # would not be a conflict miss, so don't remember it.
            self._gen_bits.pop(key, None)
            return
        self._blooms[latest].add(key)
        del self._gen_bits[key]

    def check_recent_eviction(self, key: int) -> bool:
        """Bloom-filter probe: does any live generation remember this tag?

        A hit means the block was accessed in that generation but replaced
        to make room for a more recently accessed block — a conflict miss
        (subject to bloom false positives).
        """
        for bloom in self._blooms:
            if bloom.contains(key):
                return True
        return False

    # -------------------------------------------------------------- state

    def clear(self) -> None:
        for bloom in self._blooms:
            bloom.clear()
        self._gen_bits.clear()
        for g in range(self.generations):
            self._members[g] = set()
        self._current = 0
        self._accessed_in_current = 0

    @property
    def metadata_bits_per_block(self) -> int:
        """Generation bits plus 3-bit owner context, per the paper."""
        return self.generations + 3


#: Last-touch epoch of a block the tracker holds no state for: far enough
#: back that no generation remembers it.
_NEVER = -(1 << 62)


def _key_position_order(keys: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Indices sorting events by (key, position); no two events tie.

    One sort of a packed ``key << b | position`` column when the keys
    leave room for the positions' bits, a two-key lexsort otherwise.
    """
    shift = int(pos.size).bit_length()
    if int(keys.max()) < (1 << (62 - shift)) and int(keys.min()) >= 0:
        return np.argsort((keys << shift) | pos)
    return np.lexsort((pos, keys))


class DictGenerationConflictTracker:
    """The paper's practical generation-bit + bloom-filter tracker.

    The model keeps, per resident block, the *epoch* of its latest touch,
    where the epoch counts generation advances since the last
    :meth:`clear`. That is exactly the information the paper's per-block
    generation bits carry: the current generation's bit is set iff the
    last touch is in the current epoch, and the latest set generation is
    the last-touch epoch mod ``generations`` while fewer than
    ``generations`` advances have passed since (none after). An advance
    therefore bumps the epoch and flash-clears one bloom filter.
    """

    def __init__(
        self,
        capacity: int,
        generations: int = 4,
        bloom_bits_per_generation: Optional[int] = None,
        bloom_hashes: int = 3,
    ):
        if capacity <= 0:
            raise HardwareError(f"tracker capacity must be positive: {capacity}")
        if generations < 2:
            raise HardwareError(f"need at least 2 generations, got {generations}")
        self.capacity = capacity
        self.generations = generations
        #: New-generation threshold T = capacity / generations (paper: N/4,
        #: "roughly 25% capacity in an ideal LRU stack").
        self.threshold = max(1, capacity // generations)
        bits = bloom_bits_per_generation or capacity
        self._blooms = [
            BloomFilter(bits, bloom_hashes) for _ in range(generations)
        ]
        #: Last-touch epoch per resident block; entries leave on replacement.
        self._last_touch: Dict[int, int] = {}
        self._epoch = 0
        self._accessed_in_current = 0
        self.generation_advances = 0

    @property
    def current_generation(self) -> int:
        return self._epoch % self.generations

    def on_access(self, key: int) -> None:
        if self._last_touch.get(key) == self._epoch:
            return  # already counted in this generation
        self._last_touch[key] = self._epoch
        self._accessed_in_current += 1
        if self._accessed_in_current >= self.threshold:
            self._advance_generation()

    def _advance_generation(self) -> None:
        """Open a new generation, discarding the oldest.

        With ``G`` generations used as a circular buffer, the slot after
        the current one holds the *oldest* generation: flash-clear its
        bloom filter and make it current. Its column of generation bits
        needs no walk: touches ``G`` epochs old simply stop counting.
        """
        self._epoch += 1
        self._blooms[self._epoch % self.generations].clear()
        self._accessed_in_current = 0
        self.generation_advances += 1

    def latest_generation_of(self, key: int) -> Optional[int]:
        """Most recent generation in which ``key`` was accessed, if resident."""
        last = self._last_touch.get(key)
        if last is None or self._epoch - last >= self.generations:
            return None
        return last % self.generations

    def on_replacement(self, key: int) -> None:
        """Record the replaced tag in the bloom filter of its latest generation.

        A block not touched within the live generations is old enough
        that re-fetching it would not be a conflict miss, so it is not
        remembered.
        """
        last = self._last_touch.pop(key, None)
        if last is not None and self._epoch - last < self.generations:
            self._blooms[last % self.generations].add(key)

    def check_recent_eviction(self, key: int) -> bool:
        """Bloom-filter probe: does any live generation remember this tag?

        A hit means the block was accessed in that generation but replaced
        to make room for a more recently accessed block — a conflict miss
        (subject to bloom false positives).
        """
        for bloom in self._blooms:
            if bloom.contains(key):
                return True
        return False

    # ------------------------------------------------------------- settle

    def settle(self, keys, ev_pos, ev_keys, cand_pos) -> np.ndarray:
        """Classify a logged window in one vectorized pass.

        Exactly :func:`replay_log` over the scalar methods. The steps:

        1. Sort accesses and evictions by (key, position), so each event
           knows the previous event on its block, or the carried state.
        2. An access sets a new generation bit when its block was evicted
           since, or last touched before the latest advance. Advances are
           found one segment at a time: the first position where the
           running count of those accesses reaches the threshold.
        3. An eviction inserts its victim into the bloom filter of the
           last touch's epoch (one *incarnation* of that generation), if
           fewer than ``generations`` advances have passed since.
        4. A check at ``i`` in epoch ``e`` probes the incarnations
           ``e - G + 1 .. e``. A bit of one is set iff an insert into it
           at ``j < i`` set it, or it was set when the window opened; one
           table of first-set positions per (incarnation, bit) answers
           every check.
        5. Last-touch epochs, bloom words and counters are written back.
        """
        keys = np.asarray(keys, dtype=np.int64)
        ev_pos = np.asarray(ev_pos, dtype=np.int64)
        ev_keys = np.asarray(ev_keys, dtype=np.int64)
        cand_pos = np.asarray(cand_pos, dtype=np.int64)
        n = keys.size
        if n == 0:
            return np.zeros(cand_pos.size, dtype=bool)
        G = self.generations
        e0 = self._epoch
        last_touch = self._last_touch

        # 1. Events in (key, position) order: accesses, then evictions.
        # Access p and the eviction at p concern different blocks.
        all_keys = np.concatenate((keys, ev_keys))
        all_pos = np.concatenate((np.arange(n, dtype=np.int64), ev_pos))
        order = _key_position_order(all_keys, all_pos)
        s_key = all_keys[order]
        s_pos = all_pos[order]
        s_evict = order >= n
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        np.not_equal(s_key[1:], s_key[:-1], out=first[1:])
        # Carried last-touch epochs of the blocks the window opens on.
        first_keys = s_key[first].tolist()
        carried = np.fromiter(
            map(last_touch.get, first_keys, repeat(_NEVER)),
            dtype=np.int64,
            count=len(first_keys),
        )
        # prev[k]: position of the previous event on the same block
        # (first events: -1), and whether that event was an eviction.
        prev = np.where(first, -1, np.roll(s_pos, 1))
        prev_evict = ~first & np.roll(s_evict, 1)

        # 2. Generation advances. ``touch[p]`` is the position of access
        # p's block's previous touch: -2 if the block holds no bit of any
        # epoch after the window's (evicted since, or untouched in it), -1
        # for a carried touch in the window's opening epoch. Access p sets
        # a new bit iff touch[p] <= a, the position of the last advance
        # (-2 before the first one). Each search scans a bounded span.
        marker = prev.copy()
        marker[prev_evict] = -2
        marker[first] = np.where(carried == e0, -1, -2)
        acc = ~s_evict
        touch = np.empty(n, dtype=np.int64)
        touch[s_pos[acc]] = marker[acc]
        threshold = self.threshold
        span = max(2 * threshold, 256)
        count = self._accessed_in_current
        advances = []
        a = -2
        start = 0
        while start < n:
            stop = min(n, start + span)
            ran = np.cumsum(touch[start:stop] <= a)
            k = int(np.searchsorted(ran, threshold - count))
            if k == ran.size:
                count += int(ran[-1])
                start = stop
                continue
            a = start + k
            advances.append(a)
            count = 0
            start = a + 1
        adv = np.asarray(advances, dtype=np.int64)
        n_adv = adv.size

        # 3. Inserts: each eviction's victim, into its last touch's epoch
        # (positions < p see the advances strictly before p).
        prev_epoch = e0 + np.searchsorted(adv, prev, side="left")
        prev_epoch[prev_evict] = _NEVER
        prev_epoch[first] = carried
        evs = np.flatnonzero(s_evict)
        victim_epoch = prev_epoch[evs]
        victim_pos = s_pos[evs]
        live = (e0 + np.searchsorted(adv, victim_pos, side="left")
                - victim_epoch) < G
        ins_pos = victim_pos[live]
        ins_inc = victim_epoch[live]
        ins_keys = s_key[evs][live]

        # 4. First-set positions per (incarnation, bit). Rows cover the
        # incarnations e0 - G + 1 .. e0 + n_adv; the first G rows start
        # from the window's bloom words (position -1: set before any
        # check), later rows start empty (position n: never).
        n_bits = self._blooms[0].n_bits
        n_hashes = self._blooms[0].n_hashes
        inc_lo = e0 - G + 1
        n_rows = G + n_adv
        table = np.full(n_rows * n_bits, n, dtype=np.int64)
        opening = np.concatenate(
            [self._blooms[(inc_lo + row) % G].bits for row in range(G)]
        )
        table[: G * n_bits][opening] = -1
        if ins_pos.size:
            probes = hash_indices_batch(ins_keys, n_bits, n_hashes)
            cells = (ins_inc - inc_lo)[:, None] * n_bits + probes.astype(
                np.int64
            )
            np.minimum.at(
                table, cells.ravel(), np.repeat(ins_pos, n_hashes)
            )
        verdict = np.zeros(cand_pos.size, dtype=bool)
        if cand_pos.size:
            probes = hash_indices_batch(keys[cand_pos], n_bits, n_hashes)
            probes = probes.astype(np.int64).T
            base = (e0 + np.searchsorted(adv, cand_pos, side="left")
                    - inc_lo) * n_bits
            for back in range(G):
                row = base - back * n_bits
                found = table[row + probes[0]] < cand_pos
                for probe in probes[1:]:
                    found &= table[row + probe] < cand_pos
                verdict |= found

        # 5. Write back. Per generation, its final incarnation's row.
        inserted = np.bincount(ins_inc - inc_lo, minlength=n_rows)
        for row in range(n_rows - G, n_rows):
            bloom = self._blooms[(inc_lo + row) % G]
            kept = bloom.insertions if row < G else 0
            bloom.bits[:] = table[row * n_bits:(row + 1) * n_bits] < n
            bloom.insertions = kept + int(inserted[row])
        last = np.append(first[1:], True)
        stay = last & acc
        last_touch.update(
            zip(
                s_key[stay].tolist(),
                (e0 + np.searchsorted(adv, s_pos[stay], side="left")).tolist(),
            )
        )
        gone = s_key[last & s_evict].tolist()
        deque(map(last_touch.pop, gone, repeat(None)), maxlen=0)
        self._epoch = e0 + n_adv
        self._accessed_in_current = count
        self.generation_advances += n_adv
        return verdict

    # -------------------------------------------------------------- state

    def clear(self) -> None:
        for bloom in self._blooms:
            bloom.clear()
        self._last_touch.clear()
        self._epoch = 0
        self._accessed_in_current = 0

    @property
    def metadata_bits_per_block(self) -> int:
        """Generation bits plus 3-bit owner context, per the paper."""
        return self.generations + 3
