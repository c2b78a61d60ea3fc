"""Post-detection mitigations.

CC-Hunter is a detector; the paper positions mitigation techniques —
bandwidth reduction, resource partitioning, clock fuzzing (Hu et al.) —
as complements applied *after* detection. This package implements the
three classic responses against the reproduced channels so the full
detect-then-respond loop can be exercised:

- :mod:`throttle` — rate-limit bus-lock operations per context
  (bandwidth reduction for the bus channel);
- :mod:`partition` — way-partition the shared cache between contexts
  (eliminates cross-context conflict misses, the cache channel's medium);
- :mod:`fuzz` — fuzz the spy's clock by inflating timing jitter
  (degrades every channel's decode reliability at a performance cost).

Each mitigation's constructor sets a hook its resource declares (the
bus's ``throttle`` and ``fuzzer``, the cache's ``partition`` and
``fuzzer``), its ``remove()`` clears it, and a second one of the same
kind raises :class:`~repro.errors.ConfigError`. No method is patched.
"""

from repro.mitigation.fuzz import ClockFuzzer, apply_clock_fuzzing
from repro.mitigation.partition import partition_cache_ways
from repro.mitigation.throttle import BusLockThrottle, apply_bus_lock_throttle

__all__ = [
    "ClockFuzzer",
    "apply_clock_fuzzing",
    "partition_cache_ways",
    "BusLockThrottle",
    "apply_bus_lock_throttle",
]
