"""Pre-settle reference for the generation conflict-miss tracker.

Until the shared cache logged its accesses and settled them in one
vectorized pass, :class:`GenerationConflictTracker` kept a generation
bitmask and per-generation member sets per block, and the cache drove it
per access (its batch kernel replayed the bloom checks per series). The
class below is that implementation, unchanged. The parity tests drive a
cache holding it through one ``SharedCache.access`` call per element and
compare the walk and settle of :mod:`repro.sim.resources.cache` and
:mod:`repro.hardware.conflict_tracker` with it bit for bit.
"""

from __future__ import annotations

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

    # -------------------------------------------------------------- batch

    def replay_check_batch(
        self,
        n: int,
        cand_pos,
        cand_keys,
        ins_pos,
        ins_keys,
        clears,
        snapshot_words,
    ) -> np.ndarray:
        """Resolve a series' deferred eviction checks, exactly.

        The cache's batch kernel defers all ``check_recent_eviction``
        probes out of its access loop: it logs, per series position,
        which keys were checked (``cand_*``), which victim keys were
        inserted into which generation's bloom (``ins_*``, one list per
        generation), and at which positions a generation advance
        flash-cleared which bloom (``clears``). This method reconstructs
        each check's answer *as of its position*: a probe bit counts as
        set for the check at position ``i`` iff it was set in the
        series-start ``snapshot_words`` or by an insert at position
        ``j < i``, with no flash-clear of that bloom in between. Bits
        only ever turn on between clears, so per (generation, segment
        between clears) one first-set-position array over the filter's
        bits answers every check in the segment vectorized.

        Equivalent to interleaving scalar ``check_recent_eviction`` /
        ``on_replacement`` / clears in series order; the hypothesis
        suite pins that equivalence.
        """
        m = len(cand_pos)
        if m == 0:
            return np.zeros(0, dtype=bool)
        n_bits = self._blooms[0].n_bits
        n_hashes = self._blooms[0].n_hashes
        pos = np.asarray(cand_pos, dtype=np.int64)
        cand_idx = hash_indices_batch(cand_keys, n_bits, n_hashes)
        verdict = np.zeros(m, dtype=bool)
        u1, u6, u63 = np.uint64(1), np.uint64(6), np.uint64(63)
        for g in range(self.generations):
            g_clears = sorted(c for c, gg in clears if gg == g)
            ipos_list = ins_pos[g]
            if ipos_list:
                ipos = np.asarray(ipos_list, dtype=np.int64)
                iidx = hash_indices_batch(ins_keys[g], n_bits, n_hashes)
            else:
                ipos = np.zeros(0, dtype=np.int64)
                iidx = np.zeros((0, n_hashes), dtype=np.uint64)
            snap = np.asarray(snapshot_words[g], dtype=np.uint64)
            # Segment s covers positions (bounds[s], bounds[s+1]]: a clear
            # at position c happens after position c's check and insert,
            # so both belong to the segment the clear terminates.
            bounds = [-1] + g_clears + [n]
            for s in range(len(bounds) - 1):
                lo, hi = bounds[s], bounds[s + 1]
                cmask = (pos > lo) & (pos <= hi)
                if not cmask.any():
                    continue
                cidx = cand_idx[cmask]
                # first[c, h] = earliest position whose insert set this
                # probe's bit within the segment (-1: set at segment
                # start, n: never). Segments after a clear start empty.
                if s == 0:
                    in_snap = (snap[cidx >> u6] >> (cidx & u63)) & u1
                    first = np.where(
                        in_snap.astype(bool), np.int64(-1), np.int64(n)
                    )
                else:
                    first = np.full(cidx.shape, n, dtype=np.int64)
                imask = (ipos > lo) & (ipos <= hi)
                if imask.any():
                    # Min insert position per distinct bit, by (bit, pos)
                    # lexsort + first-occurrence compaction, then mapped
                    # onto the candidates' probe bits via searchsorted.
                    fb = iidx[imask].ravel()
                    fp = np.repeat(ipos[imask], n_hashes)
                    order = np.lexsort((fp, fb))
                    fb, fp = fb[order], fp[order]
                    keep = np.empty(fb.size, dtype=bool)
                    keep[0] = True
                    keep[1:] = fb[1:] != fb[:-1]
                    ubits, upos = fb[keep], fp[keep]
                    loc = np.minimum(
                        np.searchsorted(ubits, cidx), ubits.size - 1
                    )
                    hit = ubits[loc] == cidx
                    first = np.minimum(
                        first, np.where(hit, upos[loc], np.int64(n))
                    )
                verdict[cmask] |= first.max(axis=1) < pos[cmask]
        return verdict

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

