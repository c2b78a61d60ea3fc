"""Bus-lock throttling: bandwidth reduction for the bus channel.

After CC-Hunter flags the memory bus, the OS can rate-limit atomic
unaligned operations per offending context (modern kernels expose exactly
this under split-lock detection). The throttle enforces a minimum
spacing between a context's bus locks by stretching bursts, which slashes
the covert channel's usable bandwidth without touching well-behaved
programs (benign lock rates are far below the cap).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.mitigation.override import MethodOverride
from repro.sim.machine import Machine
from repro.sim.resources.bus import MemoryBus


class BusLockThrottle:
    """Per-context minimum spacing between bus-lock operations."""

    def __init__(self, bus: MemoryBus, min_period: int,
                 contexts: Optional[set] = None):
        if min_period <= 0:
            raise ConfigError("throttle period must be positive")
        self.bus = bus
        self.min_period = min_period
        self.contexts = contexts  # None = throttle everyone
        self.locks_delayed = 0
        self._override = MethodOverride(
            bus, "lock_burst", self._throttled_lock_burst
        )

    def _throttled_lock_burst(
        self, ctx: int, start: int, count: int, period: int
    ) -> int:
        lock_burst = self._override.original
        if self.contexts is not None and ctx not in self.contexts:
            return lock_burst(ctx, start, count, period)
        if period < self.min_period:
            self.locks_delayed += count
            period = self.min_period
        return lock_burst(ctx, start, count, period)

    def remove(self) -> None:
        """Lift the throttle."""
        self._override.remove()

    @property
    def effective_max_lock_rate(self) -> float:
        """Upper bound on throttled lock events per cycle."""
        return 1.0 / self.min_period


def apply_bus_lock_throttle(
    machine: Machine,
    min_period: int = 100_000,
    contexts: Optional[set] = None,
) -> BusLockThrottle:
    """Install a bus-lock throttle on a machine's bus.

    The default spacing of one lock per 100 000 cycles (one per Δt
    window) caps the channel's burst density at 1 event per window —
    indistinguishable from benign noise, and roughly 20x below what the
    channel needs per Figure 6a.
    """
    return BusLockThrottle(machine.bus, min_period, contexts)
