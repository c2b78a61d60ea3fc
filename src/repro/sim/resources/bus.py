"""Shared memory bus / QPI with bus-lock emulation.

The memory-bus covert channel relies on the fact that an atomic memory
access spanning two cache lines locks the bus (and QPI-era parts still
emulate that lock), putting it into a *contended* state every other
context observes as inflated access latency. This model tracks bus-lock
windows, reports each lock operation to the indicator-event tap, and
serves timed accesses whose latency reflects the lock state.

Locks are committed when the locking operation is issued, covering the
whole burst (producers-first contract, see :mod:`repro.sim.engine`).

The bus keeps its own lock record, ordered for contention queries
rather than in the tap's record order. The engine issues bursts in time
order, so each ``lock_burst`` appends one symbolic
:class:`~repro.sim.events.GridChunk` row (an earlier start raises);
single locks from ``noise_locks`` are one sorted array. A contention
query asks only the rows that reach the queried times, each in closed
form, and builds no lock — so a sample costs the same at the end of a
long session as at its start.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

import numpy as np

from repro.config import BusConfig
from repro.errors import SimulationError
from repro.sim.events import NO_EVENT, EventTap, GridChunk


class MemoryBus:
    """The shared bus: lock windows, lock indicator events, timed sampling."""

    def __init__(
        self,
        config: BusConfig,
        lock_tap: EventTap,
        rng: np.random.Generator,
    ):
        self.config = config
        self.lock_tap = lock_tap
        self._rng = rng
        #: One symbolic row per lock burst, ordered by start, with each
        #: row's reach: the latest lock of it and of every row before it.
        #: Reach never decreases, so both ends of a range query bisect.
        self._bursts: List[GridChunk] = []
        self._row_starts: List[int] = []
        self._row_reach: List[int] = []
        #: Single (noise) locks, sorted; ``_singles[:_n_singles]`` is
        #: live, the rest is room to grow.
        self._singles = np.zeros(0, dtype=np.int64)
        self._n_singles = 0
        #: Cached ``period * arange(count)`` grids: the spy samples with
        #: the same shape every bit, so the offset grid is computed once
        #: per (count, period) pair (bounded; see _grid).
        self._grid_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self.total_locks = 0
        self.total_samples = 0
        #: Mitigation hooks (repro.mitigation), ``None`` unless installed:
        #: ``throttle`` spaces lock bursts, ``fuzzer`` fuzzes samples.
        self.throttle = None
        self.fuzzer = None

    def _grid(self, count: int, period: int) -> np.ndarray:
        """The (never-mutated) offset grid ``period * arange(count)``."""
        key = (count, period)
        grid = self._grid_cache.get(key)
        if grid is None:
            grid = period * np.arange(count, dtype=np.int64)
            if len(self._grid_cache) < 64:
                self._grid_cache[key] = grid
        return grid

    # ------------------------------------------------------------------ locks

    def lock_burst(self, ctx: int, start: int, count: int, period: int) -> int:
        """Issue ``count`` bus-locking atomic accesses every ``period`` cycles.

        Returns the completion time of the burst. Each access holds the bus
        locked for ``config.lock_duration`` cycles from its issue.

        Bursts are the sender hot path: each call adds one symbolic row
        to the bus's lock record and one to the indicator tap; no lock is
        built here. An installed throttle may stretch ``period`` first.
        A burst may not start before the previous burst's start.
        """
        if self.throttle is not None:
            period = self.throttle.spacing(ctx, count, period)
        if count <= 0 or period <= 0:
            raise SimulationError("lock burst needs positive count and period")
        start = int(start)
        reach = start + (count - 1) * period
        if self._row_starts:
            if start < self._row_starts[-1]:
                raise SimulationError(
                    "lock bursts must be issued in start order"
                )
            reach = max(reach, self._row_reach[-1])
        self._bursts.append(
            GridChunk(np.array([start], dtype=np.int64), count, period)
        )
        self._row_starts.append(start)
        self._row_reach.append(reach)
        self.lock_tap.record_grid(start, count, period)
        self.total_locks += count
        return int(start + count * period)

    def noise_locks(
        self, ctx: int, start: int, duration: int, rate_per_cycle: float
    ) -> None:
        """Commit Poisson-random benign lock events over ``[start, start+duration)``.

        Benign programs (e.g. legacy atomics in library code) fire bus locks
        at low random rates; these events land in the same tap and are what
        the detector's likelihood-ratio step must reject as noise.
        """
        if rate_per_cycle < 0:
            raise SimulationError("noise lock rate cannot be negative")
        expected = rate_per_cycle * duration
        n = int(self._rng.poisson(expected)) if expected > 0 else 0
        if n == 0:
            return
        times = (
            start + np.sort(self._rng.integers(0, duration, size=n))
        ).astype(np.int64)
        self._insert_singles(times)
        self.lock_tap.record_batch(times)
        self.total_locks += n

    def _insert_singles(self, times: np.ndarray) -> None:
        """Merge sorted lock times into the sorted single-lock record.

        New locks land near "now", so only the record's tail from the
        first new time on is re-sorted; the buffer grows by doubling.
        """
        n, k = self._n_singles, times.size
        if n + k > self._singles.size:
            grown = np.empty(max(2 * self._singles.size, n + k), np.int64)
            grown[:n] = self._singles[:n]
            self._singles = grown
        at = int(np.searchsorted(self._singles[:n], times[0], side="right"))
        self._singles[at:n + k] = np.sort(
            np.concatenate([self._singles[at:n], times])
        )
        self._n_singles = n + k

    def locked_at(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask: is the bus lock-contended at each timestamp?

        Lock windows have fixed width, so a time ``t`` is locked iff the
        latest lock issued at or before ``t`` lies in ``(t - lock_duration,
        t]``. That lock is the latest among each burst row's (closed form)
        and the single locks' (one search). Rows that start after
        ``max(times)`` or end before ``min(times) - lock_duration + 1``
        cannot lock any queried time and are skipped, so the answer is
        the full history's at a cost that does not grow with it.
        """
        ts = np.asarray(times, dtype=np.int64)
        if ts.size == 0:
            return np.zeros(ts.shape, dtype=bool)
        flat = ts.ravel()
        duration = self.config.lock_duration
        latest = np.full(flat.shape, NO_EVENT, dtype=np.int64)
        first = bisect_left(self._row_reach, int(flat.min()) - duration + 1)
        last = bisect_right(self._row_starts, int(flat.max()))
        for row in self._bursts[first:last]:
            np.maximum(latest, row.latest_at(flat), out=latest)
        if self._n_singles:
            singles = self._singles[:self._n_singles]
            idx = np.searchsorted(singles, flat, side="right") - 1
            np.maximum(
                latest, np.where(idx >= 0, singles[idx], NO_EVENT), out=latest
            )
        return (latest > flat - duration).reshape(ts.shape)

    # --------------------------------------------------------------- sampling

    def sample(
        self, ctx: int, start: int, count: int, period: int
    ) -> Tuple[int, np.ndarray]:
        """Serve ``count`` timed accesses spaced ``period`` cycles apart.

        Returns ``(end_time, latencies)``. Latency is the base bus+DRAM
        latency, plus the lock penalty while the bus is contended, plus
        bounded uniform jitter. The spy process averages these latencies to
        decode bits; ordinary programs see them as normal variance. An
        installed clock fuzzer transforms the latencies, not the end time.
        """
        if count <= 0 or period <= 0:
            raise SimulationError("bus sampling needs positive count and period")
        times = start + self._grid(count, period)
        latencies = np.full(count, self.config.base_latency, dtype=np.int64)
        latencies += self.locked_at(times) * self.config.locked_extra_latency
        if self.config.latency_jitter:
            latencies += self._rng.integers(
                -self.config.latency_jitter,
                self.config.latency_jitter + 1,
                size=count,
            )
        self.total_samples += count
        if self.fuzzer is not None:
            latencies = self.fuzzer.fuzz(latencies)
        return int(start + count * period), latencies
