"""Workload framework: activity profiles driving a noise process.

A workload is described by an :class:`ActivityProfile` — per-quantum rates
of the behaviours that touch the audited resources — and realized as a
:class:`~repro.sim.process.Process` that splits each OS quantum into
chunks, registers that chunk's background activity (memory traffic,
divider bursts, occasional atomic operations — the ``Random*`` operations
are non-blocking registrations), optionally performs an active cache walk,
and advances to the next chunk. This phase-alternating structure is how
real programs behave and is what produces *random* rather than recurrent
conflict patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.engine import Priority
from repro.sim.machine import Machine
from repro.sim.process import (
    BusLockBurst,
    CacheAccessSeries,
    Process,
    RandomBusLocks,
    RandomCacheTraffic,
    RandomDividerUse,
    WaitUntil,
)
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class CacheLoopPattern:
    """A short-range repeating cache walk (webserver-style thread pools).

    Each episode re-walks a window of ``ws_sets`` consecutive cache sets,
    touching ``lines_per_set`` per-process lines in each, ``repeats``
    times. ``base_set`` anchors the window (a shared directory tree:
    co-running instances overlap), jittered a little per episode. Two
    instances walking the same region put ``2 x lines_per_set`` live lines
    into 8-way sets, so episodes evict each other's lines and produce a
    *brief* periodic conflict pattern — the behaviour the paper observed
    for the Filebench webserver (periodicity between lags ~120 and ~180
    that dies out), which the oscillation detector must reject.
    """

    ws_sets: int = 150
    lines_per_set: int = 5
    repeats: int = 2
    episodes_per_quantum: int = 3
    base_set: int = 200
    base_jitter: int = 8

    def __post_init__(self) -> None:
        if self.ws_sets <= 0 or self.lines_per_set <= 0 or self.repeats <= 0:
            raise ConfigError("cache loop pattern sizes must be positive")
        if self.episodes_per_quantum <= 0:
            raise ConfigError("need at least one episode per quantum")


@dataclass(frozen=True)
class ActivityProfile:
    """Per-quantum behavioural rates of a benign program."""

    name: str
    #: Poisson rate of isolated benign bus-lock events (events/second).
    bus_lock_rate_per_s: float = 0.0
    #: Optional clustered locking: (bursts per quantum, locks per burst lo,
    #: locks per burst hi, spacing cycles). Models fsync-style activity that
    #: produces small lock clusters (the mailserver's weak second mode).
    bus_lock_bursts: Optional[Tuple[int, int, int, int]] = None
    #: Fraction of the quantum spent in division-heavy bursts.
    divider_duty: float = 0.0
    divider_burst_cycles: int = 25_000
    #: Division issue-slot occupancy within a burst (benign code divides
    #: far below the saturation rate of a covert trojan).
    divider_intensity: float = 0.10
    #: L2 accesses per quantum and the set range / tag space they draw from.
    cache_accesses_per_quantum: int = 0
    cache_set_span: Optional[Tuple[int, int]] = None
    cache_tag_space: int = 64
    #: Optional short-range repeating cache walk (see CacheLoopPattern).
    cache_loop_pattern: Optional[CacheLoopPattern] = None
    #: How many chunks each quantum is split into.
    chunks_per_quantum: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.divider_duty <= 1.0:
            raise ConfigError("divider duty must be in [0, 1]")
        if not 0.0 < self.divider_intensity <= 1.0:
            raise ConfigError("divider intensity must be in (0, 1]")
        if self.chunks_per_quantum <= 0:
            raise ConfigError("need at least one chunk per quantum")
        if self.bus_lock_rate_per_s < 0 or self.cache_accesses_per_quantum < 0:
            raise ConfigError("activity rates cannot be negative")


def _loop_pattern_accesses(
    pattern: CacheLoopPattern,
    machine: Machine,
    ctx_salt: int,
    instance: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One episode of the repeating cache walk (working set re-walked).

    Instances alternate between ``lines_per_set`` and one line fewer
    (different file sizes per server instance), so two co-running
    instances over-commit each 8-way set by about one line — one mutual
    eviction per set per walk, the paper's webserver signature. Returns
    the ``(n, 2)`` int64 ``(set, tag)`` rows: per repeat, per set of the
    window, its lines in order.
    """
    n_sets = machine.config.l2.n_sets
    jitter = int(rng.integers(-pattern.base_jitter, pattern.base_jitter + 1))
    base = (pattern.base_set + jitter) % n_sets
    lines = max(1, pattern.lines_per_set - (instance % 2))
    offsets = np.repeat(np.arange(pattern.ws_sets, dtype=np.int64), lines)
    line = np.tile(np.arange(lines, dtype=np.int64), pattern.ws_sets)
    walk = np.stack(
        (
            (base + offsets) % n_sets,
            3_000_000 + ctx_salt * 10_000 + offsets * 8 + line,
        ),
        axis=1,
    )
    return np.tile(walk, (pattern.repeats, 1))


def workload_process(
    profile: ActivityProfile,
    machine: Machine,
    n_quanta: int,
    seed: int = 0,
    instance: int = 0,
) -> Process:
    """Build a Process that exhibits ``profile`` for ``n_quanta`` quanta."""
    if n_quanta <= 0:
        raise ConfigError("workload must run at least one quantum")
    rng = derive_rng(seed, "workload", profile.name, instance)
    quantum = machine.quantum_cycles
    chunk = quantum // profile.chunks_per_quantum
    # The body captures numbers, not the machine: the machine's engine
    # holds the body, and a captured machine would form a cycle.
    n_sets = machine.config.l2.n_sets

    def body(proc: Process):
        for q in range(n_quanta):
            q_start = q * quantum
            burst_chunks = set()
            if profile.bus_lock_bursts:
                n_bursts = profile.bus_lock_bursts[0]
                burst_chunks = set(
                    int(c)
                    for c in rng.integers(
                        0, profile.chunks_per_quantum, size=n_bursts
                    )
                )
            for c in range(profile.chunks_per_quantum):
                yield WaitUntil(q_start + c * chunk)
                # Background registrations — non-blocking, cover this chunk.
                if profile.bus_lock_rate_per_s > 0:
                    yield RandomBusLocks(
                        duration=chunk,
                        rate_per_second=profile.bus_lock_rate_per_s,
                    )
                if profile.divider_duty > 0:
                    yield RandomDividerUse(
                        duration=chunk,
                        duty=profile.divider_duty,
                        burst_cycles=profile.divider_burst_cycles,
                        intensity=profile.divider_intensity,
                    )
                if profile.cache_accesses_per_quantum > 0:
                    span = profile.cache_set_span or (0, n_sets)
                    yield RandomCacheTraffic(
                        duration=chunk,
                        count=max(
                            1,
                            profile.cache_accesses_per_quantum
                            // profile.chunks_per_quantum,
                        ),
                        set_lo=span[0],
                        set_hi=span[1],
                        tag_space=profile.cache_tag_space,
                    )
                # Active behaviours — these advance time within the chunk.
                if c in burst_chunks:
                    _n, lo, hi, spacing = profile.bus_lock_bursts
                    count = int(rng.integers(lo, hi + 1))
                    yield BusLockBurst(count=count, period=spacing)
                if profile.cache_loop_pattern:
                    pattern = profile.cache_loop_pattern
                    episodes = pattern.episodes_per_quantum
                    if rng.random() < episodes / profile.chunks_per_quantum:
                        yield CacheAccessSeries(
                            accesses=_loop_pattern_accesses(
                                pattern, proc.machine, proc.ctx or 0,
                                instance, rng,
                            )
                        )

    return Process(
        f"{profile.name}#{instance}", body=body, priority=Priority.PRODUCER
    )
