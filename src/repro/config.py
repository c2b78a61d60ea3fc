"""System configuration for the simulated machine and the detector.

Defaults mirror the paper's evaluation platform: a quad-core 2.5 GHz
processor with two hyperthreads per core (MARSSx86 booted with Ubuntu
11.04), a shared 256 KB L2, an OS time quantum of 0.1 s, and the
CC-auditor sized as in Section V. The paper's private 32 KB L1s are not
simulated: conflict misses are audited in the shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Width of a hardware context id: the CC-auditor's vector registers
#: record 3-bit replacer and victim ids (Section V-A).
CONTEXT_ID_BITS = 3


def context_ids_fit(ids) -> bool:
    """Whether every id in the integer array ``ids`` fits in
    :data:`CONTEXT_ID_BITS` bits (an empty array does)."""
    return ids.size == 0 or (ids.min() >= 0 and ids.max() < 1 << CONTEXT_ID_BITS)


#: Paper constants for Δt, Section IV-B step 1.
MEMBUS_DELTA_T_CYCLES = 100_000
DIVIDER_DELTA_T_CYCLES = 500

#: Detection thresholds from Section IV-B steps 4-5.
LIKELIHOOD_RATIO_THRESHOLD = 0.5
CLUSTERING_WINDOW_QUANTA = 512


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int = 256 * 1024
    line_bytes: int = 64
    associativity: int = 8
    hit_latency: int = 20
    miss_latency: int = 200

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.size_bytes <= 0:
            raise ConfigError("cache size and line size must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigError(
                "cache size must be a whole number of sets: "
                f"{self.size_bytes} B / ({self.line_bytes} B x "
                f"{self.associativity} ways) is not integral"
            )
        if self.hit_latency <= 0 or self.miss_latency <= self.hit_latency:
            raise ConfigError("need 0 < hit latency < miss latency")

    @property
    def n_blocks(self) -> int:
        """Total number of cache blocks (lines)."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.associativity


@dataclass(frozen=True)
class BusConfig:
    """Shared memory bus / QPI timing model.

    ``lock_duration`` is how long one atomic-unaligned transaction keeps the
    bus locked; ``locked_extra_latency`` is the added latency any other
    context observes while the bus is locked (the signal the spy reads).
    """

    base_latency: int = 160
    locked_extra_latency: int = 190
    lock_duration: int = 3000
    latency_jitter: int = 12

    def __post_init__(self) -> None:
        if self.base_latency <= 0 or self.lock_duration <= 0:
            raise ConfigError("bus latencies must be positive")
        if self.locked_extra_latency < 0 or self.latency_jitter < 0:
            raise ConfigError("bus jitter and lock penalty cannot be negative")


@dataclass(frozen=True)
class FunctionalUnitConfig:
    """A long-latency functional unit shared by a core's hyperthreads.

    Used for the integer divider (the paper's test channel) and the
    multiplier (Wang & Lee's original variant the paper cites).
    """

    latency: int = 22
    contended_extra_latency: int = 24
    loop_overhead: int = 10
    #: Mean cycles between wait-on-busy indicator events while the unit is
    #: saturated by the sibling hyperthread. The paper's divider channel
    #: shows burst densities near 96 events per 500-cycle window, i.e. one
    #: wait event roughly every 5 cycles across the unit's issue ports.
    contention_event_period: float = 5.2

    def __post_init__(self) -> None:
        if self.latency <= 0 or self.loop_overhead < 0:
            raise ConfigError("functional unit latency must be positive")
        if self.contention_event_period <= 0:
            raise ConfigError("contention event period must be positive")


#: Backwards-friendly alias: the divider is the canonical instance.
DividerConfig = FunctionalUnitConfig


@dataclass(frozen=True)
class MachineConfig:
    """Topology and timing of the whole simulated machine."""

    n_cores: int = 4
    threads_per_core: int = 2
    frequency_hz: float = 2.5e9
    os_quantum_seconds: float = 0.1
    l2: CacheConfig = field(default_factory=CacheConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    divider: FunctionalUnitConfig = field(default_factory=FunctionalUnitConfig)
    #: Pipelined multiplier: lower latency, smaller contention penalty,
    #: sparser wait events than the (unpipelined) divider.
    multiplier: FunctionalUnitConfig = field(
        default_factory=lambda: FunctionalUnitConfig(
            latency=5,
            contended_extra_latency=7,
            loop_overhead=8,
            contention_event_period=10.4,
        )
    )

    def __post_init__(self) -> None:
        if self.n_cores <= 0 or self.threads_per_core <= 0:
            raise ConfigError("machine needs at least one core and one thread")
        if self.frequency_hz <= 0:
            raise ConfigError("clock frequency must be positive")
        if self.os_quantum_seconds <= 0:
            raise ConfigError("OS time quantum must be positive")

    @property
    def n_contexts(self) -> int:
        """Total hardware contexts (SMT threads) in the machine."""
        return self.n_cores * self.threads_per_core

    @property
    def quantum_cycles(self) -> int:
        """OS time quantum expressed in CPU cycles."""
        return int(round(self.os_quantum_seconds * self.frequency_hz))


@dataclass(frozen=True)
class AuditorConfig:
    """CC-auditor hardware sizing (Section V-A)."""

    n_monitors: int = 2
    histogram_bins: int = 128
    histogram_entry_bits: int = 16
    accumulator_bits: int = 16
    countdown_bits: int = 32
    vector_register_bytes: int = 128
    generations: int = 4

    def __post_init__(self) -> None:
        if self.n_monitors <= 0:
            raise ConfigError("auditor needs at least one monitor slot")
        if self.histogram_bins <= 1:
            raise ConfigError("auditor histogram needs at least two bins")
        for bits in (
            self.histogram_entry_bits,
            self.accumulator_bits,
            self.countdown_bits,
        ):
            if bits <= 0:
                raise ConfigError("register widths must be positive")

    @property
    def accumulator_max(self) -> int:
        return (1 << self.accumulator_bits) - 1

    @property
    def histogram_entry_max(self) -> int:
        return (1 << self.histogram_entry_bits) - 1

