"""Shared set-associative L2 cache with conflict-miss detection.

The cache covert channel (Xu et al.) works by trojan and spy alternately
evicting each other's blocks in pre-agreed groups of sets; the observable
CC-Hunter keys on is the resulting train of *conflict misses* labeled with
(replacer context, victim context). This model keeps true per-set LRU
order and per-block owner-context metadata, classifies conflict misses
through a pluggable tracker (ideal LRU stack or the paper's practical
generation/bloom design), and reports labeled conflict events to the tap.

Private L1s are modeled implicitly: operations issued here are the
accesses that reach L2 (covert-channel and noise working sets are sized to
defeat the 32 KB L1s, as in the paper's attack implementations).

Batched hot path: ``access_series`` and ``random_traffic`` are the
simulator's dominant cost, so they run through a vectorized kernel —
block keys, latency jitter, per-access times, and conflict-event
recording are computed in numpy over the whole series, and only the
state-dependent LRU/replacement/tracker walk remains a (tight,
locals-bound) Python loop. That is the one production path, mitigated
or not. The per-access :meth:`SharedCache.access` is the reference the
parity suite proves the kernels bit-identical to (events, latencies,
counters, RNG/jitter stepping); nothing in the simulator calls it.

Mitigations (:mod:`repro.mitigation`) act through two declared hooks
that both paths honour: ``partition`` picks the victim of a miss, and
``fuzzer`` transforms the latency column ``access_series`` returns.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.hardware.conflict_tracker import (
    ConflictMissTracker,
    GenerationConflictTracker,
)
from repro.sim.events import LabeledEventTap

#: Block keys pack (set index, tag) into one integer for dict/bloom speed.
_TAG_SHIFT = 20
_MAX_SET = 1 << _TAG_SHIFT


def block_key(set_index: int, tag: int) -> int:
    """Stable integer key for a cache block (set, tag) pair."""
    return (int(tag) << _TAG_SHIFT) | int(set_index)


class SharedCache:
    """Set-associative, true-LRU shared cache with labeled conflict events."""

    def __init__(
        self,
        config: CacheConfig,
        tracker: ConflictMissTracker,
        miss_tap: LabeledEventTap,
        rng: np.random.Generator,
        latency_jitter: int = 3,
    ):
        if config.n_sets > _MAX_SET:
            raise SimulationError(
                f"cache has {config.n_sets} sets; block keys support {_MAX_SET}"
            )
        self.config = config
        self.tracker = tracker
        self.miss_tap = miss_tap
        self._rng = rng
        self.latency_jitter = latency_jitter
        # Per-access jitter comes from a pre-drawn pool (drawing one numpy
        # random per access dominates the hot path otherwise).
        if latency_jitter:
            self._jitter_pool_np = rng.integers(
                -latency_jitter, latency_jitter + 1, size=65_536
            )
            self._jitter_pool = self._jitter_pool_np.tolist()
        else:
            self._jitter_pool_np = np.zeros(1, dtype=np.int64)
            self._jitter_pool = [0]
        self._jitter_idx = 0
        # Per-set LRU order: OrderedDict maps tag -> owner ctx, MRU at end.
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.conflict_misses = 0
        #: Mitigation hooks (repro.mitigation), ``None`` unless installed.
        self.partition = None
        self.fuzzer = None

    # ---------------------------------------------------------------- access

    def access(self, ctx: int, set_index: int, tag: int, time: int) -> Tuple[int, bool]:
        """One L2 access. Returns ``(latency, hit)``.

        On a miss, the incoming tag is checked against the conflict tracker
        *before* insertion; if it was recently prematurely evicted and the
        fill replaces a victim, a conflict-miss event labeled
        ``(replacer=ctx, victim=victim owner)`` is recorded, mirroring what
        the CC-auditor's vector registers capture.
        """
        if not 0 <= set_index < self.config.n_sets:
            raise SimulationError(
                f"set index {set_index} outside 0..{self.config.n_sets - 1}"
            )
        cache_set = self._sets[set_index]
        key = block_key(set_index, tag)
        was_hit = tag in cache_set
        if was_hit:
            cache_set.move_to_end(tag)
            cache_set[tag] = ctx
            self.tracker.on_access(key)
            self.hits += 1
            latency = self.config.hit_latency
        else:
            self.misses += 1
            is_conflict = self.tracker.check_recent_eviction(key)
            victim_owner = self._make_room(cache_set, set_index, ctx)
            cache_set[tag] = ctx
            self.tracker.on_access(key)
            if is_conflict and victim_owner is not None:
                self.conflict_misses += 1
                self.miss_tap.record(time, ctx, victim_owner)
            latency = self.config.miss_latency
        if self.latency_jitter:
            pool = self._jitter_pool
            self._jitter_idx = (self._jitter_idx + 1) % len(pool)
            latency += pool[self._jitter_idx]
        return latency, was_hit

    def _make_room(self, cache_set, set_index: int, ctx: int) -> Optional[int]:
        """Evict what a fill by ``ctx`` displaces; returns the victim's owner.

        A full set loses its LRU block. An installed partition picks the
        victim instead, or none; an eviction it makes across groups
        returns ``None`` too, so no conflict is attributed to it.
        """
        if self.partition is None:
            if len(cache_set) < self.config.associativity:
                return None
            victim_tag, victim_owner = cache_set.popitem(last=False)
        else:
            victim_tag, victim_owner = self.partition.victim(ctx, cache_set)
            if victim_tag is None:
                return None
            del cache_set[victim_tag]
        self.tracker.on_replacement(block_key(set_index, victim_tag))
        return victim_owner

    def _run_keyed_accesses(self, ctx, sets_list, tags_list, keys_list):
        """The state-dependent core: per-set LRU plus conflict tracking.

        Pure-function work (keys, jitter, latencies, timestamps) is done
        vectorized by the callers; this loop touches only the mutable
        state. Returns ``(miss_positions, conflict_positions,
        conflict_victims)`` where positions index into the series. The
        stock generation tracker gets a fused loop with its state
        transitions inlined and its bloom traffic deferred into batch
        kernels; any other tracker, or an installed partition, goes
        through per-key calls.
        """
        if (
            type(self.tracker) is GenerationConflictTracker
            and self.partition is None
        ):
            return self._run_keyed_accesses_fused(
                ctx, sets_list, tags_list, keys_list
            )
        return self._run_keyed_accesses_generic(
            ctx, sets_list, tags_list, keys_list
        )

    def _run_keyed_accesses_fused(self, ctx, sets_list, tags_list, keys_list):
        """Generation-tracker specialization of :meth:`_run_keyed_accesses`.

        Two ideas on top of the generic loop. First, the tracker's
        ``on_access`` transition (generation bits, membership, advance
        trigger) is inlined against its containers, eliminating a call
        per key. Second, all bloom traffic leaves the loop: eviction
        checks are read-only and inserts only set bits, so the loop
        merely *logs* which key was checked / inserted / flash-cleared
        at which position, and afterwards
        :meth:`GenerationConflictTracker.replay_check_batch` resolves
        every check as-of-its-position in one vectorized pass and
        ``add_batch`` applies the inserts that survive the series'
        clears. The observable outcome per access is exactly the scalar
        :meth:`access` order: hit → LRU touch, access-bit; miss →
        eviction check, replacement insert, fill, access-bit.
        """
        sets_ = self._sets
        assoc = self.config.associativity
        tracker = self.tracker
        gen_bits = tracker._gen_bits
        gb_get = gen_bits.get
        members = tracker._members
        blooms = tracker._blooms
        threshold = tracker.threshold
        generations = tracker.generations
        advance = tracker._advance_generation
        # Bloom words at series start, for the deferred check replay
        # (a handful of packed words per generation).
        snapshot = [list(bloom._words) for bloom in blooms]
        ins_pos: List[List[int]] = [[] for _ in range(generations)]
        ins_keys: List[List[int]] = [[] for _ in range(generations)]
        clears: List[Tuple[int, int]] = []
        cand_pos: List[int] = []
        cand_keys: List[int] = []
        cand_vic: List[int] = []
        miss_pos: List[int] = []
        miss_append = miss_pos.append
        cur = tracker._current
        bit = 1 << cur
        member_add = members[cur].add
        count = tracker._accessed_in_current
        shift = _TAG_SHIFT
        n = len(sets_list)
        # Two loop bodies with identical semantics: the hit-heavy one
        # folds the membership test into ``move_to_end`` (two dict ops
        # per hit, an exception per miss), the miss-heavy one tests
        # membership up front (exceptions cost ~0.2us each, which an
        # all-miss sweep would pay on every access). A residency sample
        # of the series' first accesses — deterministic, it reads only
        # cache state — picks the body; a mispredict is slower, never
        # wrong. The bodies must stay textually in sync apart from that
        # hit test (the parity suite exercises both).
        sample = min(16, n)
        resident = 0
        for j in range(sample):
            if tags_list[j] in sets_[sets_list[j]]:
                resident += 1
        if resident * 4 >= sample * 3:
            for i, s, tag, key in zip(
                range(n), sets_list, tags_list, keys_list
            ):
                cache_set = sets_[s]
                try:
                    cache_set.move_to_end(tag)
                    cache_set[tag] = ctx
                except KeyError:
                    miss_append(i)
                    if len(cache_set) >= assoc:
                        victim_tag, victim_owner = cache_set.popitem(False)
                        vkey = (victim_tag << shift) | s
                        # on_replacement: log the victim against its
                        # latest generation (skip if its bits aged out).
                        vmask = gb_get(vkey, 0)
                        if vmask:
                            for back in range(generations):
                                g = (cur - back) % generations
                                if vmask & (1 << g):
                                    break
                            ins_pos[g].append(i)
                            ins_keys[g].append(vkey)
                            del gen_bits[vkey]
                        cache_set[tag] = ctx
                        cand_pos.append(i)
                        cand_keys.append(key)
                        cand_vic.append(victim_owner)
                    else:
                        cache_set[tag] = ctx
                # on_access: set the current generation's bit.
                mask = gb_get(key, 0)
                if mask & bit:
                    continue
                gen_bits[key] = mask | bit
                member_add(key)
                count += 1
                if count >= threshold:
                    tracker._accessed_in_current = count
                    clears.append((i, (cur + 1) % generations))
                    advance()
                    cur = tracker._current
                    bit = 1 << cur
                    member_add = members[cur].add
                    count = 0
        else:
            for i, s, tag, key in zip(
                range(n), sets_list, tags_list, keys_list
            ):
                cache_set = sets_[s]
                if tag in cache_set:
                    cache_set.move_to_end(tag)
                    cache_set[tag] = ctx
                else:
                    miss_append(i)
                    if len(cache_set) >= assoc:
                        victim_tag, victim_owner = cache_set.popitem(False)
                        vkey = (victim_tag << shift) | s
                        # on_replacement: log the victim against its
                        # latest generation (skip if its bits aged out).
                        vmask = gb_get(vkey, 0)
                        if vmask:
                            for back in range(generations):
                                g = (cur - back) % generations
                                if vmask & (1 << g):
                                    break
                            ins_pos[g].append(i)
                            ins_keys[g].append(vkey)
                            del gen_bits[vkey]
                        cache_set[tag] = ctx
                        cand_pos.append(i)
                        cand_keys.append(key)
                        cand_vic.append(victim_owner)
                    else:
                        cache_set[tag] = ctx
                # on_access: set the current generation's bit.
                mask = gb_get(key, 0)
                if mask & bit:
                    continue
                gen_bits[key] = mask | bit
                member_add(key)
                count += 1
                if count >= threshold:
                    tracker._accessed_in_current = count
                    clears.append((i, (cur + 1) % generations))
                    advance()
                    cur = tracker._current
                    bit = 1 << cur
                    member_add = members[cur].add
                    count = 0
        tracker._accessed_in_current = count
        verdict = tracker.replay_check_batch(
            len(sets_list), cand_pos, cand_keys, ins_pos, ins_keys,
            clears, snapshot,
        )
        conf_pos = np.asarray(cand_pos, dtype=np.int64)[verdict]
        conf_vic = np.asarray(cand_vic, dtype=np.int64)[verdict]
        # Apply the logged inserts: anything inserted at or before a
        # generation's last flash-clear was wiped and never reaches the
        # post-series filter state.
        for g in range(generations):
            g_ins_pos = ins_pos[g]
            if not g_ins_pos:
                continue
            last_clear = -1
            for c, gg in clears:
                if gg == g:
                    last_clear = c
            keys_keep = ins_keys[g]
            if last_clear >= 0:
                keys_keep = [
                    k for j, k in zip(g_ins_pos, keys_keep) if j > last_clear
                ]
            if keys_keep:
                blooms[g].add_batch(keys_keep)
        return miss_pos, conf_pos, conf_vic

    def _run_keyed_accesses_generic(self, ctx, sets_list, tags_list, keys_list):
        sets_ = self._sets
        tracker = self.tracker
        tr_access = tracker.on_access
        tr_check = tracker.check_recent_eviction
        make_room = self._make_room
        miss_pos: List[int] = []
        miss_append = miss_pos.append
        conf_pos: List[int] = []
        conf_vic: List[int] = []
        for i, s, tag, key in zip(
            range(len(sets_list)), sets_list, tags_list, keys_list
        ):
            cache_set = sets_[s]
            if tag in cache_set:
                cache_set.move_to_end(tag)
                cache_set[tag] = ctx
                tr_access(key)
            else:
                miss_append(i)
                is_conflict = tr_check(key)
                victim_owner = make_room(cache_set, s, ctx)
                cache_set[tag] = ctx
                tr_access(key)
                if is_conflict and victim_owner is not None:
                    conf_pos.append(i)
                    conf_vic.append(victim_owner)
        return miss_pos, conf_pos, conf_vic

    def _consume_jitter(self, n: int) -> np.ndarray:
        """The next ``n`` pool values, exactly as ``access`` would step them.

        ``access`` pre-increments, so the slice starts one past the
        current index; the index afterwards equals ``n`` ``access`` steps.
        """
        pool = self._jitter_pool_np
        size = pool.size
        idx = self._jitter_idx
        positions = (idx + 1 + np.arange(n, dtype=np.int64)) % size
        self._jitter_idx = (idx + n) % size
        return pool[positions]

    def _record_conflicts(self, times, conf_pos, conf_vic, ctx) -> None:
        """One columnar tap append for a whole series of conflict events."""
        self.conflict_misses += len(conf_pos)
        self.miss_tap.record_batch(
            times[conf_pos],
            np.full(len(conf_pos), ctx, dtype=np.int16),
            np.asarray(conf_vic, dtype=np.int16),
        )

    def access_series(
        self,
        ctx: int,
        accesses: Sequence[Tuple[int, int]],
        gap: int,
        start: int,
    ) -> Tuple[int, np.ndarray]:
        """Issue accesses back-to-back; returns ``(end_time, latencies)``.

        An installed clock fuzzer transforms the returned latencies, the
        empty column included, but not the end time.
        """
        n = len(accesses)
        if n == 0:
            latencies = np.empty(0, dtype=np.int64)
            if self.fuzzer is not None:
                latencies = self.fuzzer.fuzz(latencies)
            return int(start), latencies
        pairs = np.asarray(accesses, dtype=np.int64)
        sets_arr = pairs[:, 0]
        tags_arr = pairs[:, 1]
        lo, hi = int(sets_arr.min()), int(sets_arr.max())
        if lo < 0 or hi >= self.config.n_sets:
            bad = lo if lo < 0 else hi
            raise SimulationError(
                f"set index {bad} outside 0..{self.config.n_sets - 1}"
            )
        keys_arr = (tags_arr << _TAG_SHIFT) | sets_arr
        miss_pos, conf_pos, conf_vic = self._run_keyed_accesses(
            ctx, sets_arr.tolist(), tags_arr.tolist(), keys_arr.tolist()
        )
        n_miss = len(miss_pos)
        self.hits += n - n_miss
        self.misses += n_miss
        latencies = np.full(n, self.config.hit_latency, dtype=np.int64)
        if n_miss:
            latencies[np.asarray(miss_pos, dtype=np.int64)] = (
                self.config.miss_latency
            )
        if self.latency_jitter:
            latencies += self._consume_jitter(n)
        steps = latencies + gap
        ends = start + np.cumsum(steps)
        if len(conf_pos):
            self._record_conflicts(ends - steps, conf_pos, conf_vic, ctx)
        if self.fuzzer is not None:
            latencies = self.fuzzer.fuzz(latencies)
        return int(ends[-1]), latencies

    def random_traffic(
        self,
        ctx: int,
        start: int,
        duration: int,
        count: int,
        set_lo: int = 0,
        set_hi: Optional[int] = None,
        tag_space: int = 64,
    ) -> int:
        """Benign traffic: ``count`` accesses at uniform random times.

        Each access picks a uniform set in ``[set_lo, set_hi)`` and one of
        ``tag_space`` per-context tags; re-use within the tag space produces
        the background conflict misses that perturb covert trains.
        """
        if count <= 0:
            return start + duration
        hi = self.config.n_sets if set_hi is None else set_hi
        if not 0 <= set_lo < hi <= self.config.n_sets:
            raise SimulationError(f"bad noise set range [{set_lo}, {hi})")
        times = np.sort(self._rng.integers(0, duration, size=count)) + start
        sets = self._rng.integers(set_lo, hi, size=count)
        # Tag namespace disjoint per context so noise cannot alias covert tags.
        tags = self._rng.integers(0, tag_space, size=count) + (ctx + 1) * 1_000_000
        keys = (tags << _TAG_SHIFT) | sets
        miss_pos, conf_pos, conf_vic = self._run_keyed_accesses(
            ctx, sets.tolist(), tags.tolist(), keys.tolist()
        )
        n_miss = len(miss_pos)
        self.hits += count - n_miss
        self.misses += n_miss
        if self.latency_jitter:
            # Latencies are discarded by noise traffic, but the pool index
            # must step exactly as the per-access loop steps it.
            self._jitter_idx = (
                self._jitter_idx + count
            ) % self._jitter_pool_np.size
        if len(conf_pos):
            self._record_conflicts(
                np.asarray(times, dtype=np.int64), conf_pos, conf_vic, ctx
            )
        return start + duration

    # ------------------------------------------------------------- inspection

    def owner_of(self, set_index: int, tag: int) -> Optional[int]:
        """Owner context of a resident block, or None if not cached."""
        return self._sets[set_index].get(tag)

    def resident_tags(self, set_index: int) -> Tuple[int, ...]:
        """Tags currently resident in a set, LRU to MRU order."""
        return tuple(self._sets[set_index].keys())

    @property
    def occupancy(self) -> int:
        """Total resident blocks."""
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Empty the cache (tracker state is left to the caller)."""
        for s in self._sets:
            s.clear()
        self.hits = 0
        self.misses = 0
        self.conflict_misses = 0
