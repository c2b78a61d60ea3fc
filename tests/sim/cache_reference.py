"""Per-access reference for the shared cache's walk and settle.

The simulator runs every access series and all noise traffic through the
batch kernels of :class:`SharedCache`, which has no per-access entry
point. :class:`PerAccessCache` is the cache with the one it used to have,
kept verbatim: ``access`` drives the tracker per access
(``check_recent_eviction``, ``on_replacement``, ``on_access``), so it
needs a tracker with that scalar protocol: the ideal tracker, or a
generation tracker from :mod:`tests.hardware.tracker_reference`. The
functions below have the signatures of ``access_series`` and
``random_traffic``, make the same RNG draws, then one ``access`` call
per element. Call them with a :class:`PerAccessCache` as first
argument, or run whole sessions through them with
:func:`per_access_reference`.
"""

from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.sim import machine
from repro.sim.resources.cache import SharedCache, block_key
from tests.hardware.tracker_reference import DictGenerationConflictTracker

#: (batch cache's tracker, per-access reference's tracker), per design.
TRACKER_PAIRS = (
    (GenerationConflictTracker, DictGenerationConflictTracker),
    (IdealLRUConflictTracker, IdealLRUConflictTracker),
)


class PerAccessCache(SharedCache):
    """The shared cache with its per-access ``access`` and ``_make_room``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # ``access`` steps a list copy of the jitter pool.
        self._jitter_pool = self._jitter_pool_np.tolist()

    def access(self, ctx: int, set_index: int, tag: int, time: int) -> Tuple[int, bool]:
        """One L2 access. Returns ``(latency, hit)``.

        On a miss, the incoming tag is checked against the conflict tracker
        *before* insertion; if it was recently prematurely evicted and the
        fill replaces a victim, a conflict-miss event labeled
        ``(replacer=ctx, victim=victim owner)`` is recorded, mirroring what
        the CC-auditor's vector registers capture. Logged series are
        settled first, so the tracker sees every access in order.
        """
        self.settle()
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
                self.miss_tap.record_batch([time], [ctx], [victim_owner])
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


def access_series_per_access(cache, ctx, accesses, gap, start):
    """``access_series`` as one ``access`` call per element."""
    if isinstance(accesses, np.ndarray):
        accesses = accesses.tolist()
    t = int(start)
    latencies = np.empty(len(accesses), dtype=np.int64)
    for i, (set_index, tag) in enumerate(accesses):
        latency, _hit = cache.access(ctx, set_index, tag, t)
        latencies[i] = latency
        t += latency + gap
    return t, latencies


def random_traffic_per_access(
    cache, ctx, start, duration, count, set_lo=0, set_hi=None, tag_space=64
):
    """``random_traffic``'s three RNG draws, then one ``access`` each."""
    if count <= 0:
        return start + duration
    hi = cache.config.n_sets if set_hi is None else set_hi
    if not 0 <= set_lo < hi <= cache.config.n_sets:
        raise SimulationError(f"bad noise set range [{set_lo}, {hi})")
    times = np.sort(cache._rng.integers(0, duration, size=count)) + start
    sets = cache._rng.integers(set_lo, hi, size=count)
    tags = cache._rng.integers(0, tag_space, size=count) + (ctx + 1) * 1_000_000
    for t, s, tag in zip(times.tolist(), sets.tolist(), tags.tolist()):
        cache.access(ctx, s, tag, t)
    return start + duration


@contextmanager
def per_access_reference():
    """Build every machine's cache per access, over the dict tracker.

    Machines built inside get a :class:`PerAccessCache`, whose series and
    noise traffic run through ``access``, and, unless given a tracker, a
    :class:`DictGenerationConflictTracker`.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine, "SharedCache", PerAccessCache)
        patch.setattr(
            machine, "GenerationConflictTracker", DictGenerationConflictTracker
        )
        patch.setattr(PerAccessCache, "access_series", access_series_per_access)
        patch.setattr(PerAccessCache, "random_traffic", random_traffic_per_access)
        yield


@contextmanager
def counted_access_calls():
    """Count :meth:`PerAccessCache.access` calls; yields a one-item list."""
    calls = [0]
    access = PerAccessCache.access

    def counted(self, *args):
        calls[0] += 1
        return access(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PerAccessCache, "access", counted)
        yield calls
