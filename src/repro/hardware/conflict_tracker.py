"""Conflict-miss trackers: the ideal oracle and the paper's practical design.

Both trackers answer one question at cache-miss time: *was the incoming
block prematurely evicted* — i.e. would a fully-associative LRU cache of
the same capacity still hold it? If yes, the miss is a conflict miss, the
raw material of cache-based covert timing channels.

:class:`IdealLRUConflictTracker` shadows accesses in a full LRU stack
(exact, expensive). :class:`GenerationConflictTracker` is the paper's
Figure 9 hardware: recency is approximated by four *generations*; each
cache block carries one access bit per generation, and each generation
owns a three-hash bloom filter holding the tags of blocks that were
replaced while that generation was their most recent access. A new
generation opens whenever ``threshold = capacity / 4`` distinct blocks
have been touched, discarding the oldest generation (flash-clearing its
column and bloom filter). A miss whose tag hits any live bloom filter was
evicted within roughly the last ``capacity`` distinct block touches —
a conflict miss.

The shared cache never calls a tracker per access. It logs a window of
accesses (block keys, evictions, conflict candidates) and hands the log
to :meth:`settle`, which answers every candidate's check as of its
position; ``settle`` is the generation tracker's only entry point. It
settles in one vectorized pass over key-sorted columns of per-block
state. The ideal tracker keeps the scalar protocol (``on_access``,
``on_replacement``, ``check_recent_eviction``) and settles by replaying
the log through it (:func:`replay_log`). The per-access generation
tracker that the vectorized pass is proven bit-identical to lives with
the tests (``tests/hardware/tracker_reference.py``).
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.errors import HardwareError
from repro.hardware.bloom import BloomFilter, hash_indices_batch
from repro.hardware.lru_stack import LRUStack

#: Last-touch epoch of a block the tracker holds no state for: far enough
#: back that no generation remembers it.
_NEVER = -(1 << 62)

_EMPTY = np.zeros(0, dtype=np.int64)


class ConflictMissTracker(Protocol):
    """What the shared cache needs from a conflict-miss tracker."""

    def settle(self, keys, ev_pos, ev_keys, cand_pos) -> np.ndarray:
        """Apply a logged window; one conflict verdict per candidate.

        ``keys`` holds the block key of every access in order. Access
        ``p`` evicted ``ev_keys[k]`` when ``ev_pos[k] == p``, and the miss
        at each of ``cand_pos`` was checked before that eviction: was its
        block recently (prematurely) evicted? The result is what a
        per-access tracker gives when, per access in log order, it checks
        the miss, records the eviction, then records the access.
        """


def _key_position_order(
    keys: np.ndarray, ev_keys: np.ndarray, ev_pos: np.ndarray
):
    """Accesses and evictions sorted by (key, position), as columns.

    Access ``p`` has key ``keys[p]``; returns the sorted keys, positions
    and eviction flags. No two events tie: access ``p`` and the eviction
    at ``p`` concern different blocks. When the keys leave room for the
    ``b`` position bits and the flag, one sort of packed
    ``key << (b + 1) | position << 1 | is_eviction`` codes; a two-key
    lexsort otherwise.
    """
    n = keys.size
    all_keys = np.concatenate((keys, ev_keys))
    shift = n.bit_length() + 1
    if int(all_keys.min()) >= 0 and int(all_keys.max()) < 1 << (63 - shift):
        codes = all_keys << shift
        codes[:n] |= np.arange(0, 2 * n, 2, dtype=np.int64)
        codes[n:] |= (ev_pos << 1) | 1
        codes.sort()
        return (
            codes >> shift,
            (codes >> 1) & ((1 << (shift - 1)) - 1),
            (codes & 1).astype(bool),
        )
    all_pos = np.concatenate((np.arange(n, dtype=np.int64), ev_pos))
    order = np.lexsort((all_pos, all_keys))
    return all_keys[order], all_pos[order], order >= n


def replay_log(tracker, keys, ev_pos, ev_keys, cand_pos) -> np.ndarray:
    """Settle a log through a tracker's scalar methods, one access at a time.

    Per access, in the cache's order: the miss's check, the eviction's
    replacement, then the access itself.
    """
    verdict = np.zeros(len(cand_pos), dtype=bool)
    evicted = dict(zip(np.asarray(ev_pos).tolist(), np.asarray(ev_keys).tolist()))
    checked = {p: c for c, p in enumerate(np.asarray(cand_pos).tolist())}
    check = tracker.check_recent_eviction
    replace = tracker.on_replacement
    touch = tracker.on_access
    for p, key in enumerate(np.asarray(keys).tolist()):
        c = checked.get(p)
        if c is not None:
            verdict[c] = check(key)
        victim = evicted.get(p)
        if victim is not None:
            replace(victim)
        touch(key)
    return verdict


class IdealLRUConflictTracker:
    """Exact conflict-miss classification via a fully-associative LRU stack."""

    def __init__(self, capacity: int):
        self._stack = LRUStack(capacity)
        self.capacity = capacity

    def on_access(self, key: int) -> None:
        self._stack.touch(key)

    def on_replacement(self, key: int) -> None:
        # The ideal stack models the fully-associative cache, which has its
        # own replacement order; a set-conflict eviction does not remove the
        # block from the shadow stack.
        pass

    def check_recent_eviction(self, key: int) -> bool:
        # The incoming block missed in the real cache. If the
        # fully-associative shadow still holds it, the eviction was
        # premature: a conflict miss.
        return self._stack.would_hit(key)

    def settle(self, keys, ev_pos, ev_keys, cand_pos) -> np.ndarray:
        return replay_log(self, keys, ev_pos, ev_keys, cand_pos)

    def clear(self) -> None:
        self._stack.clear()


class GenerationConflictTracker:
    """The paper's practical generation-bit + bloom-filter tracker.

    The model keeps, per resident block, the *epoch* of its latest touch,
    where the epoch counts generation advances since the last
    :meth:`clear`. That is exactly the information the paper's per-block
    generation bits carry: the current generation's bit is set iff the
    last touch is in the current epoch, and the latest set generation is
    the last-touch epoch mod ``generations`` while fewer than
    ``generations`` advances have passed since (none after). An advance
    therefore bumps the epoch and flash-clears one bloom filter.

    The epochs live in two int64 columns, block keys sorted ascending and
    each key's last-touch epoch beside it, like the auditor's fixed
    per-block metadata table: a block enters on its access and leaves on
    its replacement.
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
        #: Resident blocks' keys, ascending, and their last-touch epochs.
        self._keys = _EMPTY
        self._epochs = _EMPTY
        self._epoch = 0
        self._accessed_in_current = 0
        self.generation_advances = 0

    @property
    def current_generation(self) -> int:
        return self._epoch % self.generations

    def latest_generation_of(self, key: int) -> Optional[int]:
        """Most recent generation in which ``key`` was accessed, if resident."""
        at = int(np.searchsorted(self._keys, key))
        if at == self._keys.size or int(self._keys[at]) != key:
            return None
        last = int(self._epochs[at])
        if self._epoch - last >= self.generations:
            return None
        return last % self.generations

    # ------------------------------------------------------------- settle

    def settle(self, keys, ev_pos, ev_keys, cand_pos) -> np.ndarray:
        """Classify a logged window in one vectorized pass.

        Exactly what per-access tracking in log order gives (see
        :meth:`ConflictMissTracker.settle`). The steps:

        1. Sort accesses and evictions by (key, position), one sort of
           a packed code column, so each event knows the previous event
           on its block, or the carried state: one search of the key
           column finds the epochs the window's blocks carry in.
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
        5. Bloom bits and counters are written back, and the columns
           drop every block the window touched and take back, in key
           order, those whose last event is an access.
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
        held = self._keys

        # 1. Events in (key, position) order: accesses and evictions.
        s_key, s_pos, s_evict = _key_position_order(keys, ev_keys, ev_pos)
        first = np.empty(s_key.size, dtype=bool)
        first[0] = True
        np.not_equal(s_key[1:], s_key[:-1], out=first[1:])
        # Carried last-touch epochs of the blocks the window opens on:
        # one search of the key column.
        first_keys = s_key[first]
        at = np.searchsorted(held, first_keys)
        known = at < held.size
        known[known] = held[at[known]] == first_keys[known]
        entries = at[known]
        carried = np.full(first_keys.size, _NEVER, dtype=np.int64)
        carried[known] = self._epochs[entries]
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
        # from the window's bloom bits (position -1: set before any
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
            np.less(table[row * n_bits:(row + 1) * n_bits], n, out=bloom.bits)
            kept = bloom.insertions if row < G else 0
            bloom.insertions = kept + int(inserted[row])
        # The columns drop every block the window touched and take back
        # those whose last event is an access. A block taken back goes
        # after the untouched keys below it (its search index less the
        # touched ones) and the blocks taken back before it; the window's
        # blocks are key-sorted, so both columns share these slots.
        last = np.append(first[1:], True)
        stay = acc[last]
        untouched = np.ones(held.size, dtype=bool)
        untouched[entries] = False
        slot = (at - np.cumsum(known) + known)[stay]
        slot += np.arange(slot.size)
        rest = np.ones(held.size - entries.size + slot.size, dtype=bool)
        rest[slot] = False
        epochs = e0 + np.searchsorted(adv, s_pos[last][stay], side="left")
        columns = []
        for column, back in ((held, first_keys[stay]), (self._epochs, epochs)):
            merged = np.empty(rest.size, dtype=np.int64)
            merged[slot] = back
            merged[rest] = column[untouched]
            columns.append(merged)
        self._keys, self._epochs = columns
        self._epoch = e0 + n_adv
        self._accessed_in_current = count
        self.generation_advances += n_adv
        return verdict

    # -------------------------------------------------------------- state

    def clear(self) -> None:
        for bloom in self._blooms:
            bloom.clear()
        self._keys = self._epochs = _EMPTY
        self._epoch = 0
        self._accessed_in_current = 0

    @property
    def metadata_bits_per_block(self) -> int:
        """Generation bits plus 3-bit owner context, per the paper."""
        return self.generations + 3
