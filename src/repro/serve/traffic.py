"""Synthetic tenant traffic for the serve tests, bench, and examples.

Two seeded profiles over a single ``membus`` burst channel, shaped so
the paper's burst-pattern detector gives unambiguous answers fast:

- **covert**: alternating Δt windows of ~40 events and silence — the
  bimodal on/off density signature of a bus-locking covert sender.
  The likelihood ratio saturates at 1.0 and recurrence clusters within
  ~16 quanta (validated empirically against the in-process pipeline).
- **benign**: always-on background traffic, ``2 + Poisson(BENIGN_RATE)``
  events per window. The floor matters: the paper's two-distribution
  burst test needs a non-burst mode below 1 event per Δt, so traffic
  that never idles can never satisfy it — benign stays clear for
  every seed, not just the lucky ones.

Each quantum spans :data:`WINDOWS` Δt slots of :data:`DT` cycles. The
generators are pure functions of their seed, so a serve client, an
in-process session, and a replay all see bit-identical observations.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import ServeError
from repro.pipeline.source import ChannelKind, ChannelSpec, QuantumObservation
from repro.util.rng import derive_rng
from repro.util.runs import WindowCounts

#: Δt window width (cycles) the serve traffic uses everywhere.
DT = 1000
#: Δt windows per quantum (quantum spans ``WINDOWS * DT`` cycles).
WINDOWS = 50
#: Poisson mean of the benign profile's events per window, above its
#: floor of 2.
BENIGN_RATE = 2.0

#: The channel list a serve-traffic tenant declares in its hello frame.
CHANNELS: Tuple[ChannelSpec, ...] = (
    ChannelSpec(name="membus", kind=ChannelKind.BURST, dt=DT),
)


def covert_observations(
    n_quanta: int, seed: int = 0
) -> Iterator[QuantumObservation]:
    """On/off alternating burst traffic: detected within ~16 quanta."""
    rng = derive_rng(seed, "serve", "covert")
    span = WINDOWS * DT
    for q in range(n_quanta):
        counts = np.zeros(WINDOWS, dtype=np.int64)
        counts[::2] = 40 + rng.integers(0, 3, size=counts[::2].size)
        yield QuantumObservation(
            quantum=q,
            t0=q * span,
            t1=(q + 1) * span,
            counts={"membus": WindowCounts(counts)},
        )


def benign_observations(
    n_quanta: int, seed: int = 0
) -> Iterator[QuantumObservation]:
    """Always-on Poisson background traffic: stays clear.

    Every window carries at least 2 events, so the burst test's
    "non-burst mean < 1 event per Δt" precondition can never hold —
    clear verdicts are guaranteed by construction, for any seed.
    """
    rng = derive_rng(seed, "serve", "benign")
    span = WINDOWS * DT
    for q in range(n_quanta):
        counts = 2 + rng.poisson(BENIGN_RATE, size=WINDOWS).astype(np.int64)
        yield QuantumObservation(
            quantum=q,
            t0=q * span,
            t1=(q + 1) * span,
            counts={"membus": WindowCounts(counts)},
        )


def make_observations(
    profile: str, n_quanta: int, seed: int = 0
) -> Iterator[QuantumObservation]:
    """Dispatch on profile name ("covert" or "benign")."""
    if profile == "covert":
        return covert_observations(n_quanta, seed=seed)
    if profile == "benign":
        return benign_observations(n_quanta, seed=seed)
    raise ServeError(
        f"unknown traffic profile {profile!r} (known: covert, benign)"
    )
