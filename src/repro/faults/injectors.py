"""Composable, deterministic fault injectors over observation streams.

Each injector is a pure function of its own ``SeedSequence``-derived
random stream (:func:`repro.util.rng.derive_rng` keyed by ``(seed,
"faults", kind, channel, index)``) and the observation sequence it is
applied to — so a fault scenario is replayable **bit-for-bit**: the same
spec string, seed, and input stream always produce the identical
perturbed stream, no matter where or how many times it runs.

Injectors transform one :class:`QuantumObservation` at a time and stamp
a ``"kind:channel"`` fault tag onto every observation they actually
changed; analyzers fold matching tags into ``DEGRADED`` health while
the numerics run on the perturbed data. The catalog (parameters and
semantics) is documented in docs/ROBUSTNESS.md; ``--inject`` spec
parsing lives in :mod:`repro.faults.spec`.

Random draws always iterate burst channels in sorted-name order, so the
stream consumed per quantum does not depend on dict insertion order.
Injectors perturb single Δt windows, so a targeted channel's runs
(:class:`~repro.util.runs.WindowCounts`) are expanded to one count per
window first, and a perturbed channel carries one entry per window.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.pipeline.source import ConflictRecords, QuantumObservation
from repro.util.rng import derive_rng
from repro.util.runs import WindowCounts


class FaultInjector:
    """Base class: seeded stream + channel targeting + change tracking.

    Subclasses implement :meth:`_perturb_counts` (burst channels) and/or
    :meth:`_perturb_conflicts` (the conflict channel); the base class
    handles targeting, tag stamping, and observation reconstruction.
    """

    kind = "noop"

    def __init__(self, channel: str = "*", seed: int = 0, index: int = 0):
        self.channel = channel
        self.rng = derive_rng(seed, "faults", self.kind, channel, index)
        #: Cumulative change tallies, exported as metrics by the source.
        self.events_dropped = 0
        self.events_added = 0
        self.values_corrupted = 0
        self.quanta_touched = 0

    # ------------------------------------------------------------- plumbing

    def _targets(self, name: str) -> bool:
        return self.channel in ("*", name)

    def apply(
        self, obs: QuantumObservation, conflict_channel: str = "cache"
    ) -> QuantumObservation:
        """Return ``obs`` with this injector's perturbation applied.

        The input observation is never mutated; untouched observations
        are returned as-is (same object, no tag).
        """
        tags: List[str] = []
        new_counts: Optional[Dict[str, WindowCounts]] = None
        for name in sorted(obs.counts):
            if not self._targets(name):
                continue
            perturbed = self._perturb_counts(obs.counts[name].expand())
            if perturbed is not None:
                if new_counts is None:
                    new_counts = dict(obs.counts)
                new_counts[name] = WindowCounts(perturbed)
                tags.append(f"{self.kind}:{name}")
        new_conflicts: Optional[ConflictRecords] = None
        if obs.conflicts is not None and self._targets(conflict_channel):
            new_conflicts = self._perturb_conflicts(obs.conflicts)
            if new_conflicts is not None:
                tags.append(f"{self.kind}:{conflict_channel}")
        if not tags:
            return obs
        self.quanta_touched += 1
        return dataclasses.replace(
            obs,
            counts=new_counts if new_counts is not None else obs.counts,
            conflicts=(
                new_conflicts if new_conflicts is not None else obs.conflicts
            ),
            faults=obs.faults + tuple(tags),
        )

    # ------------------------------------------------------ subclass hooks

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        """New per-Δt counts, or None if unchanged this quantum."""
        return None

    def _perturb_conflicts(
        self, recs: ConflictRecords
    ) -> Optional[ConflictRecords]:
        """New conflict records, or None if unchanged this quantum."""
        return None


class DropInjector(FaultInjector):
    """Lose each indicator event independently with probability ``p``.

    Burst counts are binomially thinned per Δt window; conflict records
    are dropped record-by-record — the software analogue of the paper's
    noise-injection experiments, but applied as *loss* between the
    hardware taps and the analyzers.
    """

    kind = "drop"

    def __init__(self, p: float, **kwargs):
        super().__init__(**kwargs)
        self.p = float(p)

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        if self.p <= 0.0 or counts.size == 0:
            return None
        kept = self.rng.binomial(counts.astype(np.int64), 1.0 - self.p)
        lost = int(counts.sum() - kept.sum())
        if lost == 0:
            return None
        self.events_dropped += lost
        return kept

    def _perturb_conflicts(
        self, recs: ConflictRecords
    ) -> Optional[ConflictRecords]:
        n = recs.times.size
        if self.p <= 0.0 or n == 0:
            return None
        keep = self.rng.random(n) >= self.p
        lost = int(n - keep.sum())
        if lost == 0:
            return None
        self.events_dropped += lost
        return ConflictRecords(
            times=recs.times[keep],
            replacers=recs.replacers[keep],
            victims=recs.victims[keep],
        )


class DuplicateInjector(FaultInjector):
    """Deliver each event twice with probability ``p`` (double counting)."""

    kind = "dup"

    def __init__(self, p: float, **kwargs):
        super().__init__(**kwargs)
        self.p = float(p)

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        if self.p <= 0.0 or counts.size == 0:
            return None
        extra = self.rng.binomial(counts.astype(np.int64), self.p)
        added = int(extra.sum())
        if added == 0:
            return None
        self.events_added += added
        return counts + extra

    def _perturb_conflicts(
        self, recs: ConflictRecords
    ) -> Optional[ConflictRecords]:
        n = recs.times.size
        if self.p <= 0.0 or n == 0:
            return None
        repeats = 1 + (self.rng.random(n) < self.p).astype(np.int64)
        added = int(repeats.sum() - n)
        if added == 0:
            return None
        self.events_added += added
        # np.repeat keeps duplicates adjacent, so times stay sorted.
        return ConflictRecords(
            times=np.repeat(recs.times, repeats),
            replacers=np.repeat(recs.replacers, repeats),
            victims=np.repeat(recs.victims, repeats),
        )


class ReorderInjector(FaultInjector):
    """Shuffle delivery order within blocks of ``window`` entries.

    Conflict records keep their (sorted) timestamps but swap payloads
    within each block — modeling out-of-order readout of the auditor's
    vector registers; burst channels permute whole Δt windows within
    each block.
    """

    kind = "reorder"

    def __init__(self, window: int, **kwargs):
        super().__init__(**kwargs)
        self.window = int(window)

    def _block_permutation(self, n: int) -> Optional[np.ndarray]:
        """Each block's entries shuffled in place; ``None`` if none moved.

        One ``permuted`` over the full blocks, as rows of a matrix, then
        one ``permutation`` of a tail of two or more: the same draws, in
        the same order, as one ``permutation`` per block.
        """
        if n < 2 or self.window < 2:
            return None
        perm = np.arange(n)
        lo = n - n % self.window
        rows = perm[:lo].reshape(-1, self.window)
        self.rng.permuted(rows, axis=1, out=rows)
        if n - lo >= 2:
            perm[lo:] = lo + self.rng.permutation(n - lo)
        return perm if np.any(perm != np.arange(n)) else None

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        perm = self._block_permutation(counts.size)
        if perm is None:
            return None
        self.values_corrupted += int(np.sum(perm != np.arange(perm.size)))
        return counts[perm]

    def _perturb_conflicts(
        self, recs: ConflictRecords
    ) -> Optional[ConflictRecords]:
        perm = self._block_permutation(recs.times.size)
        if perm is None:
            return None
        self.values_corrupted += int(np.sum(perm != np.arange(perm.size)))
        return ConflictRecords(
            times=recs.times,
            replacers=recs.replacers[perm],
            victims=recs.victims[perm],
        )


class StallInjector(FaultInjector):
    """Blackouts: runs of consecutive windows/records lost wholesale.

    With probability ``p`` per Δt window a stall begins, erasing a run
    of 1..``max_len`` windows (their counts zeroed); on the conflict
    channel, with probability ``p`` per quantum a contiguous run of up
    to ``max_len`` records is dropped. Models a wedged collector that
    resumes — burst loss rather than uniform thinning.
    """

    kind = "stall"

    def __init__(self, p: float, max_len: int = 16, **kwargs):
        super().__init__(**kwargs)
        self.p = float(p)
        self.max_len = int(max_len)

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        n = counts.size
        if self.p <= 0.0 or n == 0:
            return None
        starts = np.flatnonzero(self.rng.random(n) < self.p)
        if starts.size == 0:
            return None
        lengths = self.rng.integers(1, self.max_len + 1, size=starts.size)
        stalled = counts.copy()
        lost = 0
        for start, length in zip(starts, lengths):
            stop = min(n, int(start) + int(length))
            lost += int(stalled[start:stop].sum())
            stalled[start:stop] = 0
        if lost == 0:
            return None
        self.events_dropped += lost
        return stalled

    def _perturb_conflicts(
        self, recs: ConflictRecords
    ) -> Optional[ConflictRecords]:
        n = recs.times.size
        if self.p <= 0.0 or n == 0 or self.rng.random() >= self.p:
            return None
        start = int(self.rng.integers(0, n))
        length = int(self.rng.integers(1, self.max_len + 1))
        keep = np.ones(n, dtype=bool)
        keep[start:start + length] = False
        lost = int(n - keep.sum())
        if lost == 0:
            return None
        self.events_dropped += lost
        return ConflictRecords(
            times=recs.times[keep],
            replacers=recs.replacers[keep],
            victims=recs.victims[keep],
        )


class BitFlipInjector(FaultInjector):
    """Flip one random bit in each counter read with probability ``p``.

    Models single-event upsets / bus glitches on the auditor's counter
    readout path: a corrupted Δt-window count can jump anywhere within
    the ``bit_width``-bit range. Only burst channels carry counters.
    """

    kind = "bitflip"

    def __init__(self, p: float, bit_width: int = 16, **kwargs):
        super().__init__(**kwargs)
        self.p = float(p)
        self.bit_width = int(bit_width)

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        n = counts.size
        if self.p <= 0.0 or n == 0:
            return None
        hit = self.rng.random(n) < self.p
        n_hit = int(hit.sum())
        if n_hit == 0:
            return None
        bits = self.rng.integers(0, self.bit_width, size=n_hit)
        flipped = counts.astype(np.int64).copy()
        flipped[hit] ^= np.int64(1) << bits
        self.values_corrupted += n_hit
        return flipped


class SaturateInjector(FaultInjector):
    """Force Δt windows to the 16-bit entry maximum with probability ``p``.

    Drives the saturating histogram accumulator (every burst analyzer's
    MonitorSlot) into its clamp path — the adversarial "pin the
    accumulator" scenario — without touching genuine counts in the
    unaffected windows.
    """

    kind = "saturate"

    #: The auditor's 16-bit histogram entry ceiling.
    SATURATED = 0xFFFF

    def __init__(self, p: float, **kwargs):
        super().__init__(**kwargs)
        self.p = float(p)

    def _perturb_counts(self, counts: np.ndarray) -> Optional[np.ndarray]:
        n = counts.size
        if self.p <= 0.0 or n == 0:
            return None
        hit = self.rng.random(n) < self.p
        n_hit = int(hit.sum())
        if n_hit == 0:
            return None
        pinned = counts.astype(np.int64).copy()
        pinned[hit] = self.SATURATED
        self.values_corrupted += n_hit
        return pinned


def apply_injectors(
    injectors,
    obs: QuantumObservation,
    conflict_channel: str = "cache",
) -> QuantumObservation:
    """Run ``obs`` through ``injectors`` left to right."""
    for injector in injectors:
        obs = injector.apply(obs, conflict_channel=conflict_channel)
    return obs
