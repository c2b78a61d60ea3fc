"""List-based reference for the divider's usage tracks.

Until each context's usage became three append-only numpy columns read
as views, :class:`repro.sim.resources.divider.DividerUnit` kept Python
lists per context and rebuilt them into arrays whenever they had
changed, and expanded each registration's overlapping pairs with one
``np.full``/``np.arange`` per interval. The track class and
``_register`` below are that implementation, unchanged;
:class:`ReferenceDividerUnit` plugs them into today's unit, so
``saturate``, ``random_use`` and ``run_loop`` run exactly as before on
top of them. The parity tests compare the two units bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.resources.divider import DividerUnit


class _UsageTrack:
    """Append-only, time-sorted usage intervals of one context."""

    __slots__ = ("starts", "ends", "intensities", "_arrays")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.intensities: List[float] = []
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def append_batch(
        self, starts: np.ndarray, ends: np.ndarray, intensities: np.ndarray
    ) -> None:
        if len(starts) == 0:
            return
        if self.starts and starts[0] < self.ends[-1]:
            raise SimulationError(
                "context usage intervals must be registered in time order"
            )
        self.starts.extend(int(s) for s in starts)
        self.ends.extend(int(e) for e in ends)
        self.intensities.extend(float(i) for i in intensities)
        self._arrays = None

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (
                np.asarray(self.starts, dtype=np.int64),
                np.asarray(self.ends, dtype=np.int64),
                np.asarray(self.intensities, dtype=np.float64),
            )
        return self._arrays

    def __len__(self) -> int:
        return len(self.starts)


class ReferenceDividerUnit(DividerUnit):
    """A divider unit on the list-based tracks and overlap expansion."""

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
            mask = hi > lo
            if not mask.any():
                continue
            new_idx = np.concatenate(
                [np.full(h - l, i) for i, (l, h) in enumerate(zip(lo, hi))
                 if h > l]
            )
            other_idx = np.concatenate(
                [np.arange(l, h) for l, h in zip(lo, hi) if h > l]
            )
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
