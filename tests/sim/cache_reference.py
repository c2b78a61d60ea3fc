"""Per-access references for the shared cache's batch kernels.

The simulator runs every access series and all noise traffic through the
batch kernels of :class:`SharedCache`; nothing in it calls the scalar
:meth:`SharedCache.access`. The functions here are the reference the
parity tests compare the kernels with: the signatures of
``access_series`` and ``random_traffic``, the same RNG draws, then one
``access`` call per element. Call them with the cache as first argument,
or patch them onto the class with :func:`per_access_reference` to run
whole sessions through them.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.resources.cache import SharedCache


def access_series_per_access(cache, ctx, accesses, gap, start):
    """``access_series`` as one ``access`` call per element."""
    if isinstance(accesses, np.ndarray):
        accesses = accesses.tolist()
    t = int(start)
    latencies = np.empty(len(accesses), dtype=np.int64)
    for i, (set_index, tag) in enumerate(accesses):
        latency, _hit = cache.access(ctx, set_index, tag, t)
        latencies[i] = latency
        t += latency + gap
    return t, latencies


def random_traffic_per_access(
    cache, ctx, start, duration, count, set_lo=0, set_hi=None, tag_space=64
):
    """``random_traffic``'s three RNG draws, then one ``access`` each."""
    if count <= 0:
        return start + duration
    hi = cache.config.n_sets if set_hi is None else set_hi
    if not 0 <= set_lo < hi <= cache.config.n_sets:
        raise SimulationError(f"bad noise set range [{set_lo}, {hi})")
    times = np.sort(cache._rng.integers(0, duration, size=count)) + start
    sets = cache._rng.integers(set_lo, hi, size=count)
    tags = cache._rng.integers(0, tag_space, size=count) + (ctx + 1) * 1_000_000
    for t, s, tag in zip(times.tolist(), sets.tolist(), tags.tolist()):
        cache.access(ctx, s, tag, t)
    return start + duration


@contextmanager
def per_access_reference():
    """Route every cache's series and noise traffic through ``access``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedCache, "access_series", access_series_per_access)
        patch.setattr(SharedCache, "random_traffic", random_traffic_per_access)
        yield


@contextmanager
def counted_access_calls():
    """Count :meth:`SharedCache.access` calls; yields a one-item list."""
    calls = [0]
    access = SharedCache.access

    def counted(self, *args):
        calls[0] += 1
        return access(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedCache, "access", counted)
        yield calls
