"""Cache way-partitioning: remove the cache channel's medium.

Partition-Locking-style defenses (Wang & Lee) assign cache ways to
context groups so one group's fills can never evict another group's
blocks. Applied after CC-Hunter identifies a suspect pair, partitioning
eliminates cross-group conflict misses — the cache channel's only
signal — at the cost of reduced effective capacity per group.

The partition installs itself as the shared cache's ``partition`` hook:
on every miss, in the batch kernels and the per-access reference alike,
the cache asks :meth:`_WayPartition.victim` which block the fill may
evict. The model keeps no way positions (each set is an LRU-ordered
map), so the partition picks a victim rather than masking ways.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.machine import Machine
from repro.sim.resources.cache import SharedCache


class _WayPartition:
    """A SharedCache's victim rule under a per-group way budget."""

    def __init__(self, cache: SharedCache, group_of_ctx: Dict[int, int],
                 ways_of_group: Dict[int, int]):
        total_ways = sum(ways_of_group.values())
        if total_ways != cache.config.associativity:
            raise ConfigError(
                f"group ways sum to {total_ways}, cache has "
                f"{cache.config.associativity}"
            )
        if cache.partition is not None:
            raise ConfigError("the cache is already way-partitioned")
        self.cache = cache
        self.group_of_ctx = dict(group_of_ctx)
        self.ways_of_group = dict(ways_of_group)
        self.cross_group_evictions_prevented = 0
        cache.partition = self

    def _group(self, ctx: int) -> int:
        if ctx not in self.group_of_ctx:
            raise ConfigError(f"context {ctx} has no partition group")
        return self.group_of_ctx[ctx]

    def victim(
        self, ctx: int, blocks: Mapping[int, int]
    ) -> Tuple[Optional[int], Optional[int]]:
        """The block a fill by ``ctx`` evicts, as ``(tag, owner)``.

        ``blocks`` maps the set's resident tags to their owner contexts,
        LRU first. Once the filler's group holds its way allocation in
        the set, the victim is the LRU block among the group's blocks. If
        the group is under budget but the set is full, another group is
        over its allocation (blocks filled before partitioning): the
        globally LRU block goes, counted here, and its owner is withheld
        (``None``) so the eviction is never attributed as a conflict.
        ``(None, None)``: nothing needs evicting.
        """
        group = self._group(ctx)
        group_of = self.group_of_ctx.get
        group_tags = [
            t for t, owner in blocks.items() if group_of(owner, -1) == group
        ]
        if len(group_tags) >= self.ways_of_group[group]:
            return group_tags[0], blocks[group_tags[0]]
        if len(blocks) >= self.cache.config.associativity:
            self.cross_group_evictions_prevented += 1
            return next(iter(blocks)), None
        return None, None

    def remove(self) -> None:
        """Restore the unpartitioned victim rule."""
        if self.cache.partition is self:
            self.cache.partition = None


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
    unknown = set(suspects) - set(range(machine.config.n_contexts))
    if unknown:
        raise ConfigError(f"the machine has no contexts {sorted(unknown)}")
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
