"""Shared-hardware resource models (bus, divider, cache)."""

from repro.sim.resources.bus import MemoryBus
from repro.sim.resources.cache import SharedCache
from repro.sim.resources.divider import DividerUnit

__all__ = ["MemoryBus", "SharedCache", "DividerUnit"]
