"""How fast this host runs right now, relative to a quiet reference host.

The benchmark shares its machine with other tenants, and their load
slows every process here by up to 2x for seconds to minutes at a time.
A fixed pure-Python loop slows with it: on the reference host, over 85
trials per workload interleaved with the loop, its time correlated with
the simulator's at 0.83-0.89 in log scale, and dividing by it halved the
trials' spread. So in-process host times are divided by the loop's
slowdown factor, sampled between quanta in the process being measured,
and served latencies and CPU time by one sampled in the load generator.

The probe is the benchmark's own code, so no change to the program under
test can move it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

#: Iterations of the probe loop (~1.4 ms on the reference host).
PROBE_LOOPS = 20_000
#: Probe time on the reference host (2-vCPU Intel Xeon VM at 2.0 GHz,
#: CPython 3.11), near its fastest: factors read ~1 when that host is
#: quiet.
REFERENCE_S = 1.35e-3
#: Seconds between samples while a workload runs. Slowdowns come and go
#: within a second; sampling every 0.1 s rather than every 1 s halved the
#: quartile spread of cache-noisy's tail latencies over 10 paired runs.
INTERVAL_S = 0.1


def _loop():
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return perf_counter() - t0


def probe(repeats=3):
    """Slowdown factor now: probe time over the reference (median)."""
    return statistics.median(_loop() for _ in range(repeats)) / REFERENCE_S


class HostSpeed:
    """Slowdown factors sampled over a run, interpolated in between.

    One sample is the median of ``repeats`` probe loops; a process that
    must not block for long between two deadlines takes one loop.
    """

    def __init__(self, repeats=3):
        self.repeats = repeats
        self.times = []
        self.factors = []

    def sample(self):
        self.factors.append(probe(self.repeats))
        self.times.append(perf_counter())

    def due(self, now):
        return not self.times or now - self.times[-1] >= INTERVAL_S

    def at(self, t):
        """The factor at ``perf_counter()`` time ``t``."""
        i = bisect_left(self.times, t)
        if i == 0:
            return self.factors[0]
        if i == len(self.times):
            return self.factors[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        f0, f1 = self.factors[i - 1], self.factors[i]
        return f0 + (f1 - f0) * (t - t0) / (t1 - t0)

    def median(self):
        return statistics.median(self.factors)
