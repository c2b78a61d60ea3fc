"""Δt calibration: deriving α from achievable channel bandwidths.

Section IV-B step 1 defines Δt as ``α x (1 / average event rate)``, with
α "an empirical constant determined using the maximum and minimum
achievable covert timing channel bandwidth rates on a given shared
hardware". This module implements that determination:

- the *fastest* achievable channel bounds the burst event rate: Δt must
  be wide enough that a reliable burst fills a window well past the
  benign Poisson regime (otherwise densities degenerate to 0/1 counts);
- the *slowest* feasible channel bounds the observation granularity: Δt
  must stay well below a bit's conflict cluster so bursts are not
  averaged together with dormancy into a normal-looking blur.

The resulting α places Δt between those regimes. With the reproduction's
channel parameters the calibration recovers the paper's Δt values
(100 000 cycles for the bus, 500 for the divider) to within their order
of magnitude, and :func:`assess_delta_t` classifies a candidate Δt into
the Poisson / usable / normal regimes from the window counts it gives,
using their index of dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.core.density import choose_delta_t
from repro.errors import DetectionError
from repro.util.stats import index_of_dispersion, sample_counts_to_histogram

#: :func:`assess_delta_t`'s floors: the 95th percentile of a usable Δt's
#: non-zero window counts, and the index of dispersion of its histogram.
MIN_BURST_DENSITY = 3.0
MIN_DISPERSION = 2.0


@dataclass(frozen=True)
class AlphaCalibration:
    """Outcome of the paper's α determination for one hardware unit."""

    unit: str
    #: Event rate (events/cycle) a saturating burst sustains on this unit.
    burst_event_rate: float
    #: Shortest conflict cluster a feasible channel emits (cycles).
    min_cluster_cycles: int
    #: Target events per Δt window for the burst mode (keeps the second
    #: distribution far from the Poisson head).
    target_burst_density: float
    alpha: float
    delta_t: int

    def summary(self) -> str:
        return (
            f"{self.unit}: burst rate {self.burst_event_rate:.2e} ev/cycle, "
            f"alpha {self.alpha:.3g} -> Δt = {self.delta_t} cycles"
        )


def calibrate_alpha(
    unit: str,
    burst_event_rate: float,
    min_cluster_cycles: int,
    mean_event_rate: float,
    target_burst_density: float = 20.0,
) -> AlphaCalibration:
    """Derive α (and Δt) for a hardware unit.

    ``burst_event_rate`` is the indicator-event rate while the fastest
    channel contends (e.g. one bus lock per 5 000 cycles); a reliable
    burst should fill a window with ``target_burst_density`` events, so
    the window must span ``target / burst_rate`` cycles. That window must
    also fit inside the slowest feasible channel's conflict clusters
    (``min_cluster_cycles``), or bursts would blur into dormancy. α is
    then the window expressed in units of the *mean* inter-event interval
    (the paper's formulation).
    """
    if burst_event_rate <= 0 or mean_event_rate <= 0:
        raise DetectionError("event rates must be positive")
    if min_cluster_cycles <= 0:
        raise DetectionError("cluster length must be positive")
    if target_burst_density <= 1:
        raise DetectionError("target burst density must exceed 1 event")
    window = target_burst_density / burst_event_rate
    window = min(window, float(min_cluster_cycles))
    alpha = window * mean_event_rate
    delta_t = choose_delta_t(mean_event_rate, alpha)
    return AlphaCalibration(
        unit=unit,
        burst_event_rate=burst_event_rate,
        min_cluster_cycles=min_cluster_cycles,
        target_burst_density=target_burst_density,
        alpha=alpha,
        delta_t=delta_t,
    )


class DeltaTRegime(Enum):
    """Which statistical regime a candidate Δt puts densities into."""

    POISSON = "too small: densities are a Poisson 0/1 head"
    USABLE = "usable: burst mode separates from the head"
    NORMAL = "too large: densities blur toward a normal distribution"


def assess_delta_t(counts: Sequence[int]) -> DeltaTRegime:
    """Classify a candidate Δt by the event count of each of its windows.

    ``counts`` holds one count per Δt window of an observed train, as a
    tap's window reader gives them
    (``read_counts(dt, t0, t1).expand()``).

    - typical non-empty windows hold fewer than :data:`MIN_BURST_DENSITY`
      events (the 95th percentile of non-zero densities) -> POISSON
      (Δt too small to expose bursts as a separate mode);
    - index of dispersion below :data:`MIN_DISPERSION` -> NORMAL
      (Δt so wide that bursts and dormancy average out into similar
      counts everywhere);
    - otherwise USABLE.
    """
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts[counts > 0]
    if nonzero.size == 0 or np.percentile(nonzero, 95) < MIN_BURST_DENSITY:
        return DeltaTRegime.POISSON
    hist = sample_counts_to_histogram(counts, 128)
    if index_of_dispersion(hist) < MIN_DISPERSION:
        return DeltaTRegime.NORMAL
    return DeltaTRegime.USABLE


def paper_bus_calibration() -> AlphaCalibration:
    """The bus channel's calibration with this reproduction's parameters.

    One lock per 5 000 cycles while contending; the slowest feasible
    channel (0.1 bps per TCSEC) still clusters >= 100 M cycles of
    contention per bit; mean rate measured over a typical covert
    transmission is within a small factor of the burst rate.
    """
    return calibrate_alpha(
        unit="membus",
        burst_event_rate=1 / 5_000,
        min_cluster_cycles=100_000_000,
        mean_event_rate=1 / 5_000,
    )


def paper_divider_calibration() -> AlphaCalibration:
    """The divider channel's calibration (one wait per ~5.2 cycles).

    The divider's burst density target is higher (the unit fires events
    two orders of magnitude faster), giving the paper's ~500-cycle Δt
    with the observed ~96-event burst mode.
    """
    return calibrate_alpha(
        unit="divider",
        burst_event_rate=1 / 5.2,
        min_cluster_cycles=100_000_000,
        mean_event_rate=1 / 5.2,
        target_burst_density=96.0,
    )
