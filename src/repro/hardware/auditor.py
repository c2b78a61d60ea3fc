"""Register-level model of the CC-auditor (Section V-A).

The CC-auditor accumulates indicator events for up to two monitored
hardware units. Per monitor slot it has:

- a 32-bit countdown register initialized to the unit's Δt,
- a 16-bit accumulator counting events within the current Δt window,
- a 128-entry × 16-bit histogram buffer recording the event-density
  histogram (accumulator value indexes the buffer at each Δt expiry).

For cache monitoring it additionally has two alternating 128-byte vector
registers recording, for every conflict miss, the 3-bit context ids of the
replacer and the victim; the software daemon drains the full register in
the background while the other fills.

The model is behaviourally faithful to the fixed-width hardware: density
indices clamp at the last histogram bin, the accumulator and histogram
entries saturate, and vector-register drains happen whole-register at a
time. A slot folds whole Δt windows, so the countdown and the
accumulator appear only as the clamp each window's count passes through.
It takes them as runs of equal-valued windows: a run of ``n`` windows
bumps its entry by ``n``, as ``n`` countdown expiries would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import CONTEXT_ID_BITS, AuditorConfig, context_ids_fit
from repro.errors import HardwareError
from repro.util.dtypes import ensure_int64
from repro.util.runs import WindowCounts


@dataclass
class MonitorSlot:
    """One of the auditor's (up to two) unit monitors.

    Its histogram buffer is the package's only saturating density
    accumulator: every burst analyzer folds its per-Δt counts through a
    slot, whether the slot is programmed on a live auditor or stands
    alone for trace replay and served tenants. A fold costs O(runs +
    bins): a divider quantum of 500k windows arrives as a few thousand
    runs, and every tally below comes from the runs.
    """

    unit_name: str
    dt: int
    config: AuditorConfig
    histogram: np.ndarray = field(init=False)
    windows_recorded: int = field(init=False, default=0)
    events_seen: int = field(init=False, default=0)
    #: Windows whose raw count saturated the 16-bit accumulator
    #: (cumulative across ``read_and_reset`` — drains don't clear it).
    clamp_events: int = field(init=False, default=0)
    #: Histogram entries that saturated at ``histogram_entry_max``.
    entry_saturations: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise HardwareError(f"Δt must be positive, got {self.dt}")
        self.histogram = np.zeros(self.config.histogram_bins, dtype=np.int64)

    def ingest_window_counts(
        self, counts: Union[WindowCounts, Sequence[int]]
    ) -> None:
        """Record one event count per elapsed Δt window.

        Equivalent to the hardware's event-signal path: the accumulator
        counts events, and at each countdown expiry its (saturated) value
        bumps the matching histogram entry. ``counts`` is a
        :class:`~repro.util.runs.WindowCounts` or one count per window;
        a run of ``n`` windows bumps its entry ``n`` times at once (a
        length-weighted bincount). Lists and narrow integer columns are
        widened; float columns raise instead of truncating.
        """
        if not isinstance(counts, WindowCounts):
            counts = WindowCounts(
                ensure_int64(counts, "window counts").ravel()
            )
        values = ensure_int64(counts.values, "window counts")
        lengths = counts.lengths
        if values.size == 0:
            return
        if values.min() < 0:
            raise HardwareError("event counts cannot be negative")
        cfg = self.config
        self.events_seen += counts.total()
        over = values > cfg.accumulator_max
        if over.any():
            self.clamp_events += int(
                over.sum() if lengths is None else lengths[over].sum()
            )
        # Clamping to the accumulator, then to the last bin, is one clamp.
        limit = min(cfg.accumulator_max, cfg.histogram_bins - 1)
        bins = np.minimum(values, limit)
        hist = self.histogram
        # Float weights sum window counts exactly (below 2**53).
        hist += np.bincount(
            bins, weights=lengths, minlength=cfg.histogram_bins
        ).astype(np.int64, copy=False)
        saturated = hist > cfg.histogram_entry_max
        if saturated.any():
            self.entry_saturations += int(saturated.sum())
            np.minimum(hist, cfg.histogram_entry_max, out=hist)
        self.windows_recorded += len(counts)

    def read_and_reset(self) -> np.ndarray:
        """Daemon read at the OS-quantum boundary: copy out, clear buffer."""
        snapshot = self.histogram.copy()
        self.histogram[:] = 0
        self.windows_recorded = 0
        return snapshot


class VectorRegisterPair:
    """Two alternating fixed-size vector registers for conflict-miss records.

    Each record is one byte holding two 3-bit context ids (replacer,
    victim). When the active register fills, recording switches to the
    other while software drains the full one; the model treats the drain as
    lossless (the paper's stated design goal of the alternation).
    """

    def __init__(self, config: AuditorConfig):
        self.config = config
        self.capacity = config.vector_register_bytes
        self._active: List[int] = []
        self._drained: List[int] = []
        self.swaps = 0

    def record(self, replacer: int, victim: int) -> None:
        limit = 1 << CONTEXT_ID_BITS
        if not (0 <= replacer < limit and 0 <= victim < limit):
            raise HardwareError(
                f"context ids must fit in {CONTEXT_ID_BITS} bits"
            )
        self._active.append((replacer << CONTEXT_ID_BITS) | victim)
        if len(self._active) >= self.capacity:
            self._drained.extend(self._active)
            self._active = []
            self.swaps += 1

    def record_batch(self, replacers: np.ndarray, victims: np.ndarray) -> None:
        """Record a column of conflict-miss pairs in one shot.

        Validation and packing are vectorized; the register fill/drain
        walk then advances in capacity-sized slices, so the alternation
        (a swap exactly when the active register reaches capacity) and
        the final register contents match the per-record path exactly.
        Unlike :meth:`record`, an out-of-range id rejects the whole
        batch before anything is recorded.
        """
        reps = np.asarray(replacers, dtype=np.int64).ravel()
        vics = np.asarray(victims, dtype=np.int64).ravel()
        if reps.shape != vics.shape:
            raise HardwareError(
                "replacer and victim columns must be the same length"
            )
        if reps.size == 0:
            return
        if not (context_ids_fit(reps) and context_ids_fit(vics)):
            raise HardwareError(
                f"context ids must fit in {CONTEXT_ID_BITS} bits"
            )
        packed = ((reps << CONTEXT_ID_BITS) | vics).tolist()
        i, n = 0, len(packed)
        while True:
            room = self.capacity - len(self._active)
            if n - i < room:
                self._active.extend(packed[i:])
                return
            self._active.extend(packed[i : i + room])
            i += room
            self._drained.extend(self._active)
            self._active = []
            self.swaps += 1

    def drain(self) -> Tuple[np.ndarray, np.ndarray]:
        """Software drain: all records so far, as (replacers, victims)."""
        packed = np.asarray(self._drained + self._active, dtype=np.int64)
        self._drained = []
        self._active = []
        if packed.size == 0:
            empty = np.zeros(0, dtype=np.int16)
            return empty, empty
        mask = (1 << CONTEXT_ID_BITS) - 1
        return (
            (packed >> CONTEXT_ID_BITS).astype(np.int16),
            (packed & mask).astype(np.int16),
        )

    @property
    def pending(self) -> int:
        return len(self._drained) + len(self._active)


class CCAuditor:
    """The full CC-auditor: monitor slots plus the conflict-miss vectors."""

    def __init__(self, config: Optional[AuditorConfig] = None):
        self.config = config or AuditorConfig()
        self._slots: List[Optional[MonitorSlot]] = [None] * self.config.n_monitors
        self.vectors = VectorRegisterPair(self.config)

    def program(self, slot_index: int, unit_name: str, dt: int) -> MonitorSlot:
        """Point a monitor slot at a hardware unit (privileged instruction).

        The auditor monitors at most ``config.n_monitors`` (two) units at a
        time — the paper's complexity/overhead tradeoff; re-programming an
        occupied slot replaces its monitor.
        """
        if not 0 <= slot_index < self.config.n_monitors:
            raise HardwareError(
                f"slot {slot_index} outside 0..{self.config.n_monitors - 1}"
            )
        slot = MonitorSlot(unit_name=unit_name, dt=dt, config=self.config)
        self._slots[slot_index] = slot
        return slot

    def slot(self, slot_index: int) -> MonitorSlot:
        s = self._slots[slot_index]
        if s is None:
            raise HardwareError(f"monitor slot {slot_index} is not programmed")
        return s

    def free_slot_index(self) -> int:
        """First unprogrammed slot, or raise if all are busy."""
        for i, s in enumerate(self._slots):
            if s is None:
                return i
        raise HardwareError(
            f"all {self.config.n_monitors} monitor slots are in use; "
            "CC-auditor monitors at most two units at a time"
        )

    @property
    def active_units(self) -> Tuple[str, ...]:
        return tuple(s.unit_name for s in self._slots if s is not None)
