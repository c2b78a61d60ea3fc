"""Per-core integer divider shared by SMT hyperthreads.

The divider covert channel transmits a '1' by saturating the core's
division units so that the sibling hyperthread's divisions *wait on a busy
divider* — the indicator event CC-Hunter monitors ("the number of times a
division instruction from one process waits on a busy divider occupied by
an instruction from another process").

Usage model
-----------
Each context's divider activity is a sequence of non-overlapping
*usage intervals* carrying an **intensity** — the fraction of division
issue slots the context occupies:

- the trojan's saturation loop and the spy's timing loop issue divisions
  back-to-back: intensity 1.0;
- benign division-heavy phases (bzip2, h264ref) intersperse divisions with
  other work: intensity well below 1.

Wait events only arise where two different contexts' usage overlaps, at a
rate proportional to the product of their intensities (both must present a
division at the same time for one to wait). A saturating trojan against a
looping spy yields the paper's burst density (~96 wait events per
500-cycle Δt window); two benign programs overlap at a few events per
window — the random low-density conflicts of the false-alarm study.

Every overlap is reported once — when the chronologically later interval
is registered — as a rate segment in the wait-event tap. All bookkeeping
is vectorized. Each context's usage is three append-only, time-sorted
numpy columns (starts, ends, intensities) that grow by doubling; each
context's operations execute in virtual-time order, so a registration
appends to its own columns and reads every other context's as views of
the live prefix. Overlap detection is a pair of binary searches per
other context, and the overlapping pairs are expanded with one
``np.repeat``, so beyond those searches a registration's cost does not
grow with the session's history.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.config import DividerConfig
from repro.errors import SimulationError
from repro.sim.events import RateSegmentTap

#: Usage at or above this intensity inflates the sibling's division latency.
CONTENTION_INTENSITY = 0.5


def _grown(column: np.ndarray, n: int, size: int) -> np.ndarray:
    """A ``size``-long copy of ``column`` whose first ``n`` rows are live."""
    grown = np.empty(size, dtype=column.dtype)
    grown[:n] = column[:n]
    return grown


class _UsageTrack:
    """Append-only, time-sorted usage intervals of one context.

    ``[:n]`` of each column is live, the rest is room to grow; reads are
    read-only views of the live prefix.
    """

    __slots__ = ("_starts", "_ends", "_intensities", "_n")

    def __init__(self) -> None:
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._intensities = np.empty(0, dtype=np.float64)
        self._n = 0

    def append_batch(
        self, starts: np.ndarray, ends: np.ndarray, intensities: np.ndarray
    ) -> None:
        n, k = self._n, len(starts)
        if k == 0:
            return
        if n and starts[0] < self._ends[n - 1]:
            raise SimulationError(
                "context usage intervals must be registered in time order"
            )
        if n + k > self._starts.size:
            size = max(2 * self._starts.size, n + k)
            self._starts = _grown(self._starts, n, size)
            self._ends = _grown(self._ends, n, size)
            self._intensities = _grown(self._intensities, n, size)
        self._starts[n:n + k] = starts
        self._ends[n:n + k] = ends
        self._intensities[n:n + k] = intensities
        self._n = n + k

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, intensities)`` of the live prefix."""
        n = self._n
        views = (self._starts[:n], self._ends[:n], self._intensities[:n])
        for view in views:
            view.flags.writeable = False
        return views

    @property
    def starts(self) -> np.ndarray:
        return self.arrays()[0]

    @property
    def ends(self) -> np.ndarray:
        return self.arrays()[1]

    def __len__(self) -> int:
        return self._n


class DividerUnit:
    """One core's division unit: usage intervals, waits, timed loops."""

    def __init__(
        self,
        core_id: int,
        config: DividerConfig,
        wait_tap: RateSegmentTap,
        rng: np.random.Generator,
    ):
        self.core_id = core_id
        self.config = config
        self.wait_tap = wait_tap
        self._rng = rng
        self._usage: Dict[int, _UsageTrack] = {}

    # ----------------------------------------------------------------- usage

    def _register(
        self,
        ctx: int,
        starts: np.ndarray,
        ends: np.ndarray,
        intensities: np.ndarray,
    ) -> None:
        """Register usage and emit wait segments for cross-context overlaps."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        intensities = np.asarray(intensities, dtype=np.float64)
        base_rate = 1.0 / self.config.contention_event_period
        for other, track in self._usage.items():
            if other == ctx or len(track) == 0:
                continue
            o_starts, o_ends, o_int = track.arrays()
            lo = np.searchsorted(o_ends, starts, side="right")
            hi = np.searchsorted(o_starts, ends, side="left")
            # New interval i overlaps the other context's [lo[i], hi[i]);
            # pairs come out in (i, other) order.
            counts = np.maximum(hi - lo, 0)
            total = int(counts.sum())
            if total == 0:
                continue
            new_idx = np.repeat(np.arange(counts.size), counts)
            other_idx = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            other_idx += np.arange(total)
            seg_starts = np.maximum(starts[new_idx], o_starts[other_idx])
            seg_ends = np.minimum(ends[new_idx], o_ends[other_idx])
            rates = base_rate * intensities[new_idx] * o_int[other_idx]
            keep = seg_ends > seg_starts
            self.wait_tap.record_segments_batch(
                seg_starts[keep], seg_ends[keep], rates[keep]
            )
        self._usage.setdefault(ctx, _UsageTrack()).append_batch(
            starts, ends, intensities
        )

    def saturate(self, ctx: int, start: int, duration: int) -> int:
        """Occupy the divider continuously for ``duration`` cycles.

        This is the trojan's '1' action: a loop of back-to-back division
        instructions keeping every division unit busy (intensity 1.0).
        """
        if duration <= 0:
            raise SimulationError("saturation duration must be positive")
        self._register(
            ctx,
            np.array([start]),
            np.array([start + duration]),
            np.array([1.0]),
        )
        return start + duration

    def random_use(
        self,
        ctx: int,
        start: int,
        duration: int,
        duty: float,
        burst_cycles: int,
        intensity: float = 0.25,
    ) -> int:
        """Benign random divider activity: bursts at ``duty`` utilization.

        Models division-heavy benign phases (bzip2, h264ref): during a
        burst the program divides at ``intensity`` of the issue rate;
        overlap with a sibling produces random, low-density wait events.
        """
        if not 0.0 <= duty <= 1.0:
            raise SimulationError(f"duty must be in [0, 1], got {duty}")
        if not 0.0 < intensity <= 1.0:
            raise SimulationError(f"intensity must be in (0, 1], got {intensity}")
        n_bursts = int(round(duty * duration / burst_cycles))
        if n_bursts <= 0:
            return start + duration
        # Disjoint random bursts: pick offsets on a stride grid so bursts
        # cannot overlap each other, then jitter is implicit in selection.
        stride = max(burst_cycles, duration // n_bursts)
        slot_count = max(1, duration // stride)
        n_bursts = min(n_bursts, slot_count)
        slots = self._rng.choice(slot_count, size=n_bursts, replace=False)
        slots.sort()
        starts = start + slots.astype(np.int64) * stride
        ends = np.minimum(starts + burst_cycles, start + duration)
        self._register(
            ctx, starts, ends, np.full(n_bursts, float(intensity))
        )
        return start + duration

    # ----------------------------------------------------------------- loops

    def iteration_latency(self, divs_per_iter: int, contended: bool) -> int:
        """Deterministic latency of one loop iteration."""
        per_div = self.config.latency
        if contended:
            per_div += self.config.contended_extra_latency
        return self.config.loop_overhead + divs_per_iter * per_div

    def _contending_intervals(
        self, ctx: int, window_start: int, window_end: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Other-context intervals of contention-grade intensity in a window."""
        pieces_s, pieces_e = [], []
        for other, track in self._usage.items():
            if other == ctx or len(track) == 0:
                continue
            o_starts, o_ends, o_int = track.arrays()
            lo = int(np.searchsorted(o_ends, window_start, side="right"))
            hi = int(np.searchsorted(o_starts, window_end, side="left"))
            if hi <= lo:
                continue
            sel = o_int[lo:hi] >= CONTENTION_INTENSITY
            pieces_s.append(o_starts[lo:hi][sel])
            pieces_e.append(o_ends[lo:hi][sel])
        if not pieces_s:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        starts = np.concatenate(pieces_s)
        ends = np.concatenate(pieces_e)
        order = np.argsort(starts)
        return starts[order], ends[order]

    def run_loop(
        self, ctx: int, start: int, iterations: int, divs_per_iter: int
    ) -> Tuple[int, np.ndarray]:
        """Run a timed division loop; returns ``(end_time, latencies)``.

        The loop walks the timeline segment by segment: within a stretch
        where the sibling's contention state is constant, every iteration
        has the same deterministic latency, so whole stretches are emitted
        at once. Measurement jitter is added to the *returned* latencies
        only (the spy's clock readings), not to the time evolution.
        """
        if iterations <= 0 or divs_per_iter <= 0:
            raise SimulationError("division loop needs positive sizes")
        lat_idle = self.iteration_latency(divs_per_iter, contended=False)
        lat_contended = self.iteration_latency(divs_per_iter, contended=True)
        horizon = start + iterations * lat_contended
        c_starts, c_ends = self._contending_intervals(ctx, start, horizon)
        boundaries = np.sort(np.concatenate([c_starts, c_ends]))

        t = start
        remaining = iterations
        pieces: List[np.ndarray] = []
        while remaining > 0:
            inside = np.searchsorted(c_starts, t, side="right")
            contended = inside > 0 and t < c_ends[:inside].max(initial=-1)
            latency = lat_contended if contended else lat_idle
            nxt = np.searchsorted(boundaries, t, side="right")
            if nxt >= boundaries.size:
                n_fit = remaining
            else:
                gap = int(boundaries[nxt]) - t
                n_fit = max(1, min(remaining, -(-gap // latency)))
            pieces.append(np.full(n_fit, latency, dtype=np.int64))
            t += n_fit * latency
            remaining -= n_fit
        latencies = np.concatenate(pieces)
        self._register(
            ctx, np.array([start]), np.array([t]), np.array([1.0])
        )
        observed = latencies + self._rng.integers(-3, 4, size=latencies.size)
        return t, observed
