"""Δt selection and event-density histograms (Section IV-B, steps 1-2).

Step 1 picks the observation interval Δt as ``α × (1 / average event
rate)``: wide enough that benign densities do not degenerate to a Poisson
spike at 0/1, narrow enough that they do not blur into a normal
distribution. The paper's calibrated values are 100 000 cycles for the
memory bus and 500 cycles for the integer divider; those are this module's
defaults, with the α rule available for other resources.

Step 2 counts events per Δt window and histograms the counts into the
CC-auditor's 128-entry buffer format. The streaming form of step 2 is
the auditor's own :class:`~repro.hardware.auditor.MonitorSlot`, which
folds per-window counts into its saturating histogram buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.config import DIVIDER_DELTA_T_CYCLES, MEMBUS_DELTA_T_CYCLES
from repro.errors import DetectionError
from repro.util.stats import sample_counts_to_histogram


class DensitySource(Protocol):
    """Anything that can report event counts per Δt window.

    Satisfied by :class:`~repro.core.event_train.EventTrain`. The sim's
    taps report theirs through window readers (``read_counts``), which
    the streaming path folds into the auditor's monitor slots instead.
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
