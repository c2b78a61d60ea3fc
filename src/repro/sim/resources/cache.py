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
simulator's dominant cost, and its only way into the cache. Latency
jitter and per-access times are computed in numpy over the whole series,
and only the LRU walk over plain dicts remains a Python loop; it returns
the misses at once, because latencies feed back into the processes.
Conflict classification is deferred: the log keeps each series' columns
and the evictions the walk records, and :meth:`SharedCache.settle` packs
block keys once and hands the log to the tracker's ``settle`` in one
call, which answers every logged conflict check as of its position. The
per-access path that calls a tracker per access lives with the tests
(``tests/sim/cache_reference.py``), as the reference the parity suite
proves the walk and settle bit-identical to (events, latencies,
counters, RNG/jitter stepping).

Mitigations (:mod:`repro.mitigation`) act through two declared hooks:
``partition`` picks the victim of a miss, and ``fuzzer`` transforms the
latency column ``access_series`` returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.hardware.conflict_tracker import ConflictMissTracker
from repro.obs.tracing import trace_span
from repro.sim.events import LabeledEventTap

#: Block keys pack (set index, tag) into one int64 for the tracker's
#: sorts and bloom hashes, so tags stay below ``_MAX_TAG``.
_TAG_SHIFT = 20
_MAX_SET = 1 << _TAG_SHIFT
_MAX_TAG = 1 << (63 - _TAG_SHIFT)

#: Logged accesses at which a series call settles the log itself, which
#: bounds the log's memory between the engine's settles.
SETTLE_ACCESSES = 8192


def block_key(set_index, tag):
    """Stable integer key for a cache block (set, tag) pair.

    Takes ints or int64 columns of sets and tags alike.
    """
    return (tag << _TAG_SHIFT) | set_index


class SharedCache:
    """Set-associative, true-LRU shared cache with labeled conflict events.

    Series calls classify conflict misses lazily: ``conflict_misses``,
    the tap and the tracker are current only after :meth:`settle`. A
    :class:`~repro.sim.machine.Machine` settles before its engine
    returns; code that drives a bare cache calls ``settle()`` before
    reading the tap, the counters or the tracker. ``hits``, ``misses``
    and the returned latencies are current at once.
    """

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
        else:
            self._jitter_pool_np = np.zeros(1, dtype=np.int64)
        self._jitter_idx = 0
        #: Per-set LRU order: each dict maps tag -> owner ctx, LRU first.
        #: A hit re-inserts its tag, which moves it to the MRU end.
        self._sets: List[Dict[int, int]] = [{} for _ in range(config.n_sets)]
        self.hits = 0
        self.misses = 0
        self.conflict_misses = 0
        #: Mitigation hooks (repro.mitigation), ``None`` unless installed.
        self.partition = None
        self.fuzzer = None
        self._reset_log()

    def _walk(self, ctx, sets_list, tags_list):
        """The LRU walk of one series: the only per-access loop.

        Touches only the sets and the ``partition`` hook; the tracker's
        work is logged for :meth:`settle`. Returns ``(miss positions,
        eviction positions, victim tags, victim owners)``: evictions at
        log-wide positions, and an owner of -1 marking an eviction the
        partition withholds from attribution. The caller logs them, so a
        hook that raises leaves the log as it was.
        """
        sets_ = self._sets
        assoc = self.config.associativity
        partition = self.partition
        base = self._logged
        miss_pos: List[int] = []
        ev_pos: List[int] = []
        ev_tags: List[int] = []
        ev_owners: List[int] = []
        miss_append = miss_pos.append
        for i, s, tag in zip(range(len(sets_list)), sets_list, tags_list):
            cache_set = sets_[s]
            if cache_set.pop(tag, None) is not None:
                cache_set[tag] = ctx
                continue
            miss_append(i)
            if partition is None:
                if len(cache_set) >= assoc:
                    for victim in cache_set:
                        break
                    ev_pos.append(base + i)
                    ev_tags.append(victim)
                    ev_owners.append(cache_set.pop(victim))
            else:
                victim, owner = partition.victim(ctx, cache_set)
                if victim is not None:
                    del cache_set[victim]
                    ev_pos.append(base + i)
                    ev_tags.append(victim)
                    ev_owners.append(-1 if owner is None else owner)
            cache_set[tag] = ctx
        return miss_pos, ev_pos, ev_tags, ev_owners

    def _log(self, ctx, sets, tags, times, ev_pos, ev_tags, ev_owners) -> None:
        """Append one walked series to the settle log.

        ``sets``, ``tags`` and ``times`` are the series' columns, logged
        as they are with its context; the walk's evictions extend the
        log's eviction lists.
        """
        self._log_sets.append(sets)
        self._log_tags.append(tags)
        self._log_times.append(times)
        self._log_ctxs.append(ctx)
        self._log_ev_pos.extend(ev_pos)
        self._log_ev_tags.extend(ev_tags)
        self._log_ev_owners.extend(ev_owners)
        self._logged += sets.size
        if self._logged >= SETTLE_ACCESSES:
            self.settle()

    def settle(self) -> None:
        """Classify the logged accesses' conflict misses.

        Block keys are packed once over the whole log, and each
        eviction's victim key, time and context are gathered by its
        log-wide position. The tracker settles the log in one call; the
        conflicts it confirms reach the tap in one ``record_batch``, in
        log order, and are counted in ``conflict_misses``.
        """
        if not self._logged:
            return
        with trace_span("cache.settle"):
            sets = np.concatenate(self._log_sets)
            keys = block_key(sets, np.concatenate(self._log_tags))
            ev_pos, ev_tags, owners = (
                np.fromiter(column, np.int64, len(column))
                for column in (
                    self._log_ev_pos, self._log_ev_tags, self._log_ev_owners
                )
            )
            ev_keys = block_key(sets[ev_pos], ev_tags)
            log_times, log_ctxs = self._log_times, self._log_ctxs
            self._reset_log()
            cand = np.flatnonzero(owners >= 0)
            verdict = self.tracker.settle(keys, ev_pos, ev_keys, ev_pos[cand])
            hit = cand[verdict]
            if hit.size:
                at = ev_pos[hit]
                lengths = [times.size for times in log_times]
                ctxs = np.repeat(np.array(log_ctxs, dtype=np.int64), lengths)
                self.conflict_misses += int(hit.size)
                self.miss_tap.record_batch(
                    np.concatenate(log_times)[at], ctxs[at], owners[hit]
                )

    def _reset_log(self) -> None:
        self._log_sets: List[np.ndarray] = []
        self._log_tags: List[np.ndarray] = []
        self._log_times: List[np.ndarray] = []
        self._log_ctxs: List[int] = []
        self._log_ev_pos: List[int] = []
        self._log_ev_tags: List[int] = []
        self._log_ev_owners: List[int] = []
        self._logged = 0

    def _consume_jitter(self, n: int) -> np.ndarray:
        """The next ``n`` pool values, one step per access.

        Each access steps the index before it reads, so the slice starts
        one past the current index and the index ends ``n`` steps on.
        """
        pool = self._jitter_pool_np
        idx = self._jitter_idx
        self._jitter_idx = (idx + n) % pool.size
        return pool.take(np.arange(idx + 1, idx + 1 + n), mode="wrap")

    def access_series(
        self,
        ctx: int,
        accesses: Sequence[Tuple[int, int]],
        gap: int,
        start: int,
    ) -> Tuple[int, np.ndarray]:
        """Issue accesses back-to-back; returns ``(end_time, latencies)``.

        ``accesses`` holds ``(set, tag)`` integer pairs, with each set
        below ``n_sets`` and each tag in ``[0, 2**43)``; anything else
        raises :class:`SimulationError` before any access. An installed
        clock fuzzer transforms the returned latencies, the empty column
        included, but not the end time.
        """
        n = len(accesses)
        if n == 0:
            latencies = np.empty(0, dtype=np.int64)
            if self.fuzzer is not None:
                latencies = self.fuzzer.fuzz(latencies)
            return int(start), latencies
        pairs = np.asarray(accesses)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise SimulationError(
                f"accesses must be (set, tag) pairs; got shape {pairs.shape}"
            )
        if pairs.dtype.kind not in "iu":
            raise SimulationError(
                f"set indices and tags must be integers; got {pairs.dtype}"
            )
        # A copy: the log holds the columns until the next settle.
        pairs = pairs.astype(np.int64)
        sets_arr = pairs[:, 0]
        tags_arr = pairs[:, 1]
        lo, hi = int(sets_arr.min()), int(sets_arr.max())
        if lo < 0 or hi >= self.config.n_sets:
            bad = lo if lo < 0 else hi
            raise SimulationError(
                f"set index {bad} outside 0..{self.config.n_sets - 1}"
            )
        lo, hi = int(tags_arr.min()), int(tags_arr.max())
        if lo < 0 or hi >= _MAX_TAG:
            bad = lo if lo < 0 else hi
            raise SimulationError(f"tag {bad} outside 0..{_MAX_TAG - 1}")
        miss_pos, ev_pos, ev_tags, ev_owners = self._walk(
            ctx, sets_arr.tolist(), tags_arr.tolist()
        )
        n_miss = len(miss_pos)
        self.hits += n - n_miss
        self.misses += n_miss
        latencies = np.full(n, self.config.hit_latency, dtype=np.int64)
        if n_miss:
            latencies[miss_pos] = self.config.miss_latency
        if self.latency_jitter:
            latencies += self._consume_jitter(n)
        steps = latencies + gap
        ends = start + np.cumsum(steps)
        self._log(
            ctx, sets_arr, tags_arr, ends - steps, ev_pos, ev_tags, ev_owners
        )
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
        # Tag namespace disjoint per context so noise cannot alias covert tags.
        tag_base = (ctx + 1) * 1_000_000
        if tag_space <= 0 or not 0 <= tag_base <= _MAX_TAG - tag_space:
            raise SimulationError(
                f"noise tags [{tag_base}, {tag_base} + {tag_space}) of "
                f"context {ctx} do not fit in 0..{_MAX_TAG - 1}"
            )
        times = np.sort(self._rng.integers(0, duration, size=count)) + start
        sets = self._rng.integers(set_lo, hi, size=count)
        tags = self._rng.integers(0, tag_space, size=count) + tag_base
        miss_pos, ev_pos, ev_tags, ev_owners = self._walk(
            ctx, sets.tolist(), tags.tolist()
        )
        n_miss = len(miss_pos)
        self.hits += count - n_miss
        self.misses += n_miss
        if self.latency_jitter:
            # Latencies are discarded by noise traffic, but the pool index
            # steps once per access all the same.
            self._jitter_idx = (
                self._jitter_idx + count
            ) % self._jitter_pool_np.size
        self._log(ctx, sets, tags, times, ev_pos, ev_tags, ev_owners)
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
        """Empty the cache (tracker state is left to the caller).

        Logged series are settled first, so their conflicts reach the tap.
        """
        self.settle()
        for s in self._sets:
            s.clear()
        self.hits = 0
        self.misses = 0
        self.conflict_misses = 0
