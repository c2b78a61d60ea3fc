"""Cache way-partitioning: remove the cache channel's medium.

Partition-Locking-style defenses (Wang & Lee) assign cache ways to
context groups so one group's fills can never evict another group's
blocks. Applied after CC-Hunter identifies a suspect pair, partitioning
eliminates cross-group conflict misses — the cache channel's only
signal — at the cost of reduced effective capacity per group.

The implementation wraps the shared cache's ``access`` so each lookup
operates on the subset of ways owned by the accessor's group: a fill may
only evict a block whose owner is in the same group.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigError, SimulationError
from repro.mitigation.override import MethodOverride
from repro.sim.machine import Machine
from repro.sim.resources.cache import SharedCache, block_key


class _WayPartition:
    """Way-partitioned view over a SharedCache."""

    def __init__(self, cache: SharedCache, group_of_ctx: Dict[int, int],
                 ways_of_group: Dict[int, int]):
        total_ways = sum(ways_of_group.values())
        if total_ways != cache.config.associativity:
            raise ConfigError(
                f"group ways sum to {total_ways}, cache has "
                f"{cache.config.associativity}"
            )
        self.cache = cache
        self.group_of_ctx = dict(group_of_ctx)
        self.ways_of_group = dict(ways_of_group)
        self.cross_group_evictions_prevented = 0
        self._override = MethodOverride(
            cache, "access", self._partitioned_access
        )

    def _group(self, ctx: int) -> int:
        if ctx not in self.group_of_ctx:
            raise ConfigError(f"context {ctx} has no partition group")
        return self.group_of_ctx[ctx]

    def _partitioned_access(self, ctx, set_index, tag, time):
        """Access restricted to the accessor group's ways.

        Hits behave normally (data is where it is); on a miss the victim
        is the LRU block *owned by the same group*, and the group may only
        hold up to its way allocation in the set.
        """
        cache = self.cache
        if not 0 <= set_index < cache.config.n_sets:
            raise SimulationError(
                f"set index {set_index} outside 0..{cache.config.n_sets - 1}"
            )
        cache_set = cache._sets[set_index]
        group = self._group(ctx)
        if tag in cache_set:
            return self._override.original(ctx, set_index, tag, time)
        # Miss path: enforce the group's way budget manually.
        cache.misses += 1
        key = block_key(set_index, tag)
        is_conflict = cache.tracker.check_recent_eviction(key)
        group_tags = [
            t for t, owner in cache_set.items()
            if self.group_of_ctx.get(owner, -1) == group
        ]
        victim_owner = None
        if len(group_tags) >= self.ways_of_group[group]:
            victim_tag = group_tags[0]  # LRU among the group's blocks
            victim_owner = cache_set.pop(victim_tag)
            cache.tracker.on_replacement(block_key(set_index, victim_tag))
        elif len(cache_set) >= cache.config.associativity:
            # Set full but group under budget: another group is over its
            # allocation (legacy blocks from before partitioning); evict
            # the globally-LRU block without attributing a conflict pair.
            victim_tag, _owner = cache_set.popitem(last=False)
            cache.tracker.on_replacement(block_key(set_index, victim_tag))
            self.cross_group_evictions_prevented += 1
            victim_owner = None
        cache_set[tag] = ctx
        cache.tracker.on_access(key)
        if is_conflict and victim_owner is not None:
            cache.conflict_misses += 1
            cache.miss_tap.record(time, ctx, victim_owner)
        latency = cache.config.miss_latency
        if cache.latency_jitter:
            latency += int(cache._consume_jitter(1)[0])
        return latency, False

    def remove(self) -> None:
        """Restore the unpartitioned access path.

        Drops the instance-level override, so the cache's batch kernels
        (disabled while any ``access`` wrapper is installed) re-engage; a
        stacked wrapper is reinstalled as-is.
        """
        self._override.remove()


def partition_cache_ways(
    machine: Machine,
    suspect_contexts: Sequence[int],
    suspect_ways: Optional[int] = None,
) -> _WayPartition:
    """Quarantine each suspect context into its own private cache ways.

    Every suspect gets a *separate* group of ``suspect_ways`` ways
    (default: associativity / 4), so the suspects can no longer evict
    each other's blocks — which is the cache channel's only signal — nor
    anyone else's; the remaining contexts share the leftover ways.
    """
    suspects = list(dict.fromkeys(suspect_contexts))
    if not suspects:
        raise ConfigError("need at least one suspect context")
    assoc = machine.config.l2.associativity
    ways = suspect_ways if suspect_ways is not None else max(1, assoc // 4)
    remaining = assoc - ways * len(suspects)
    if ways < 1 or remaining < 1:
        raise ConfigError(
            f"cannot give {len(suspects)} suspects {ways} ways each out of "
            f"{assoc} and leave any for the rest"
        )
    group_of_ctx = {}
    ways_of_group = {}
    for i, ctx in enumerate(suspects):
        group_of_ctx[ctx] = i
        ways_of_group[i] = ways
    shared_group = len(suspects)
    ways_of_group[shared_group] = remaining
    for ctx in range(machine.config.n_contexts):
        group_of_ctx.setdefault(ctx, shared_group)
    return _WayPartition(machine.l2, group_of_ctx, ways_of_group)
