"""Δt selection and event-density histograms (Section IV-B, steps 1-2).

Step 1 picks the observation interval Δt as ``α × (1 / average event
rate)``: wide enough that benign densities do not degenerate to a Poisson
spike at 0/1, narrow enough that they do not blur into a normal
distribution. The paper's calibrated values are 100 000 cycles for the
memory bus and 500 cycles for the integer divider; those are this module's
defaults, with the α rule available for other resources.

Step 2 counts events per Δt window and histograms the counts into the
CC-auditor's 128-entry buffer format. :class:`StreamingDensityHistogram`
does step 2 incrementally from per-window counts: it takes no raw
timestamps and carries no partial window between chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from repro.config import DIVIDER_DELTA_T_CYCLES, MEMBUS_DELTA_T_CYCLES
from repro.errors import DetectionError
from repro.util.dtypes import ensure_int64
from repro.util.stats import sample_counts_to_histogram


class DensitySource(Protocol):
    """Anything that can report event counts per Δt window.

    Satisfied by :class:`~repro.core.event_train.EventTrain`, by the sim's
    sparse :class:`~repro.sim.events.EventTap`, and by the dense
    :class:`~repro.sim.events.RateSegmentTap`.
    """

    def density_counts(self, dt: int, t0: int, t1: int) -> np.ndarray: ...


def choose_delta_t(
    mean_rate_per_cycle: float,
    alpha: float,
    min_dt: int = 16,
    max_dt: int = 10_000_000,
) -> int:
    """Pick Δt = α / mean event rate, clamped to a sane cycle range.

    ``alpha`` is the empirical per-resource constant the paper derives from
    the maximum and minimum achievable channel bandwidths on that hardware;
    it tempers Δt away from the Poisson (too small) and normal (too large)
    regimes.
    """
    if mean_rate_per_cycle <= 0:
        raise DetectionError(
            f"mean event rate must be positive, got {mean_rate_per_cycle}"
        )
    if alpha <= 0:
        raise DetectionError(f"alpha must be positive, got {alpha}")
    dt = int(round(alpha / mean_rate_per_cycle))
    return max(min_dt, min(dt, max_dt))


@dataclass(frozen=True)
class DensityHistogram:
    """An event-density histogram over one observation window.

    ``hist[d]`` = number of Δt windows containing ``d`` events (d clamps at
    the last bin). This is exactly the content of one CC-auditor histogram
    buffer at an OS-quantum boundary.
    """

    hist: np.ndarray
    dt: int
    window_start: int
    window_end: int

    @property
    def n_windows(self) -> int:
        return int(self.hist.sum())

    @property
    def total_events_lower_bound(self) -> int:
        """Events implied by the histogram (clamped bins undercount)."""
        return int((self.hist * np.arange(self.hist.size)).sum())


def build_density_histogram(
    source: DensitySource,
    dt: int,
    t0: int,
    t1: int,
    n_bins: int = 128,
) -> DensityHistogram:
    """Histogram the event density of ``source`` over ``[t0, t1)``."""
    if t1 <= t0:
        raise DetectionError(f"empty observation window [{t0}, {t1})")
    counts = source.density_counts(dt, t0, t1)
    hist = sample_counts_to_histogram(counts, n_bins)
    return DensityHistogram(hist=hist, dt=dt, window_start=t0, window_end=t1)


class StreamingDensityHistogram:
    """Incremental density-histogram accumulation with bounded memory.

    The streaming counterpart of :func:`build_density_histogram` and of
    the CC-auditor's :class:`~repro.hardware.auditor.MonitorSlot`: per-Δt
    event counts of whole windows arrive in arbitrary chunks and are
    folded straight into a fixed-size histogram. State is the histogram
    alone, so memory is O(n_bins) regardless of stream length, and the
    result is numerically identical to histogramming the whole window
    sequence at once.

    ``count_clamp`` / ``entry_max`` model the auditor's saturating
    accumulator and 16-bit histogram entries; ``None`` disables them.
    The ``ingest_window_counts`` / ``read_and_reset`` method pair matches
    ``MonitorSlot``, so either can back a pipeline burst analyzer.
    """

    def __init__(
        self,
        dt: int,
        n_bins: int = 128,
        count_clamp: Optional[int] = None,
        entry_max: Optional[int] = None,
    ):
        if dt <= 0:
            raise DetectionError(f"Δt must be positive, got {dt}")
        if n_bins < 1:
            raise DetectionError(f"need at least 1 bin, got {n_bins}")
        self.dt = int(dt)
        self.n_bins = int(n_bins)
        self.count_clamp = count_clamp
        self.entry_max = entry_max
        self._hist = np.zeros(self.n_bins, dtype=np.int64)
        self.windows_recorded = 0
        self.events_seen = 0
        #: Windows whose raw count exceeded ``count_clamp`` (cumulative,
        #: never reset — the auditor-fidelity signal operators watch).
        self.clamp_events = 0
        #: Histogram entries that hit ``entry_max`` saturation (cumulative).
        self.entry_saturations = 0

    def _fold(self, counts: np.ndarray) -> None:
        if self.count_clamp is not None:
            over = counts > self.count_clamp
            if over.any():
                self.clamp_events += int(over.sum())
                counts = np.minimum(counts, self.count_clamp)
        bins = np.minimum(counts, self.n_bins - 1)
        self._hist += np.bincount(bins, minlength=self.n_bins)
        if self.entry_max is not None:
            over_entries = self._hist > self.entry_max
            if over_entries.any():
                self.entry_saturations += int(over_entries.sum())
                np.minimum(self._hist, self.entry_max, out=self._hist)
        self.windows_recorded += int(counts.size)

    def ingest_window_counts(self, counts: np.ndarray) -> None:
        """Fold per-Δt-window event counts (whole windows) into the histogram.

        This is the vectorized batch kernel of the estimator (one
        ``bincount`` folds any number of windows); float columns are
        rejected loudly rather than silently truncated.
        """
        arr = ensure_int64(counts, "window counts").ravel()
        if arr.size == 0:
            return
        if arr.min() < 0:
            raise DetectionError("window counts cannot be negative")
        self.events_seen += int(arr.sum())
        self._fold(arr)

    #: Batch kernel alias, matching the other streaming estimators.
    push_batch = ingest_window_counts

    def push(self, count: int) -> None:
        """Per-window adapter over :meth:`push_batch` (one window's count)."""
        self.ingest_window_counts(np.array([count]))

    def histogram(self) -> np.ndarray:
        """A copy of the current histogram."""
        return self._hist.copy()

    def read_and_reset(self) -> np.ndarray:
        """Atomically read the histogram and clear it (quantum boundary)."""
        hist = self._hist.copy()
        self._hist[:] = 0
        return hist


def default_delta_t(unit: str) -> int:
    """The paper's calibrated Δt for a named unit.

    The multiplier (the paper's cited Wang & Lee variant) fires wait
    events at half the divider's saturation rate in this model, so its
    default Δt doubles to keep the burst mode at a comparable bin.
    """
    table = {
        "membus": MEMBUS_DELTA_T_CYCLES,
        "divider": DIVIDER_DELTA_T_CYCLES,
        "multiplier": 2 * DIVIDER_DELTA_T_CYCLES,
    }
    if unit not in table:
        raise DetectionError(
            f"no default Δt for unit {unit!r}; choose from {sorted(table)} "
            "or call choose_delta_t with a measured rate"
        )
    return table[unit]
