"""Δt selection (Section IV-B, step 1).

Step 1 picks the observation interval Δt as ``α × (1 / average event
rate)``: wide enough that benign densities do not degenerate to a Poisson
spike at 0/1, narrow enough that they do not blur into a normal
distribution. The paper's calibrated values are 100 000 cycles for the
memory bus and 500 cycles for the integer divider; those are this module's
defaults, with the α rule available for other resources.

Step 2 counts events per Δt window and histograms the counts into the
CC-auditor's 128-entry buffer format. A tap's window reader
(``read_counts``) counts, and the auditor's
:class:`~repro.hardware.auditor.MonitorSlot` folds the counts into its
saturating histogram buffer; offline sweeps histogram them with
:func:`~repro.util.stats.sample_counts_to_histogram`.
"""

from __future__ import annotations

from repro.config import DIVIDER_DELTA_T_CYCLES, MEMBUS_DELTA_T_CYCLES
from repro.errors import DetectionError

#: The cycle range :func:`choose_delta_t` clamps Δt into.
MIN_DELTA_T = 16
MAX_DELTA_T = 10_000_000


def choose_delta_t(mean_rate_per_cycle: float, alpha: float) -> int:
    """Pick Δt = α / mean event rate, clamped to
    [:data:`MIN_DELTA_T`, :data:`MAX_DELTA_T`] cycles.

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
    return max(MIN_DELTA_T, min(dt, MAX_DELTA_T))


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
