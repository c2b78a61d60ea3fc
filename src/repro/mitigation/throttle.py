"""Bus-lock throttling: bandwidth reduction for the bus channel.

After CC-Hunter flags the memory bus, the OS can rate-limit atomic
unaligned operations per offending context (modern kernels expose exactly
this under split-lock detection). The throttle enforces a minimum
spacing between a context's bus locks by stretching bursts, which slashes
the covert channel's usable bandwidth without touching well-behaved
programs (benign lock rates are far below the cap).

The throttle installs itself as the bus's ``throttle`` hook, which
:meth:`MemoryBus.lock_burst` asks for each burst's spacing.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.sim.machine import Machine
from repro.sim.resources.bus import MemoryBus


class BusLockThrottle:
    """Per-context minimum spacing between bus-lock operations."""

    def __init__(self, bus: MemoryBus, min_period: int,
                 contexts: Optional[set] = None):
        if min_period <= 0:
            raise ConfigError("throttle period must be positive")
        if bus.throttle is not None:
            raise ConfigError("the bus already has a lock throttle")
        self.bus = bus
        self.min_period = min_period
        self.contexts = contexts  # None = throttle everyone
        self.locks_delayed = 0
        bus.throttle = self

    def spacing(self, ctx: int, count: int, period: int) -> int:
        """The period a burst of ``count`` locks by ``ctx`` may use."""
        if self.contexts is not None and ctx not in self.contexts:
            return period
        if period < self.min_period:
            self.locks_delayed += count
            return self.min_period
        return period

    def remove(self) -> None:
        """Lift the throttle."""
        if self.bus.throttle is self:
            self.bus.throttle = None

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
    unknown = set(contexts or ()) - set(range(machine.config.n_contexts))
    if unknown:
        raise ConfigError(f"the machine has no contexts {sorted(unknown)}")
    return BusLockThrottle(machine.bus, min_period, contexts)
