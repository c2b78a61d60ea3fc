"""Clock fuzzing: degrade every timing channel's decode reliability.

Hu's classic mitigation randomizes the clock the spy times with, at a
real performance/precision cost to everyone (which is why the paper
recommends detection first, fuzzing second). We model it as amplified
measurement jitter on the resources the spy times: bus sample latencies
and cache access latencies gain a uniform fuzz term, drowning the
latency gap the spy decodes from.

The fuzzer is the ``fuzzer`` hook of the bus and the shared cache:
``MemoryBus.sample`` and ``SharedCache.access_series`` pass their
latency column through :meth:`ClockFuzzer.fuzz`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sim.machine import Machine


class ClockFuzzer:
    """Injects uniform timing fuzz into spy-visible latencies.

    ``correlated=False`` (default) draws independent noise per access —
    Hu-style clock fuzzing, which deep averaging can partially defeat.
    ``correlated=True`` draws one offset per *timing call* (a whole probe
    or sampling loop shares it), modeling the burst-correlated latency
    variability of real systems (timer interrupts, DRAM refresh phases,
    co-runner bursts) that the paper says makes low-contrast covert
    signals unreliable — it does not average away within a probe.
    """

    def __init__(self, machine: Machine, fuzz_cycles: int,
                 correlated: bool = False):
        if fuzz_cycles <= 0:
            raise ConfigError("fuzz amplitude must be positive")
        if machine.bus.fuzzer is not None or machine.l2.fuzzer is not None:
            raise ConfigError("the machine already has a clock fuzzer")
        self.machine = machine
        self.fuzz_cycles = fuzz_cycles
        self.correlated = correlated
        self._rng = np.random.default_rng(machine.seed ^ 0xF022)
        machine.bus.fuzzer = machine.l2.fuzzer = self

    def fuzz(self, latencies: np.ndarray) -> np.ndarray:
        """One timing call's latencies as the fuzzed clock reports them."""
        if self.correlated:
            noise = int(self._rng.integers(0, self.fuzz_cycles + 1))
        else:
            noise = self._rng.integers(
                0, self.fuzz_cycles + 1, size=latencies.shape
            )
        return latencies + noise

    def remove(self) -> None:
        """Restore the unfuzzed clock."""
        for resource in (self.machine.bus, self.machine.l2):
            if resource.fuzzer is self:
                resource.fuzzer = None


def apply_clock_fuzzing(machine: Machine, fuzz_cycles: int = 800) -> ClockFuzzer:
    """Install clock fuzzing sized to swamp the channels' latency gaps.

    The default 800-cycle amplitude is ~4x the bus channel's contended
    vs uncontended gap, pushing its effective decode error rate toward
    coin-flipping for realistic per-bit sample counts.
    """
    return ClockFuzzer(machine, fuzz_cycles)
