"""Per-Δt window counts, stored as runs of equal-valued windows."""

from __future__ import annotations

from typing import Optional

import numpy as np


class WindowCounts:
    """One quantum's per-Δt window counts, as ``(values, lengths)`` runs.

    Run ``i`` is ``lengths[i]`` consecutive windows that each counted
    ``values[i]`` events. At the divider's Δt of 500 cycles a quantum is
    500,000 windows but only a few thousand runs, since its wait
    segments leave the count constant between segment edges.
    ``lengths`` None means one window per value: sparse-event channels
    (bus locks, served and decoded observations, trace archives) carry
    their columns that way. ``len()`` is the window count. Consumers
    that fold counts take the runs as they are; consumers that perturb
    or serialize single windows :meth:`expand` them.
    """

    __slots__ = ("values", "lengths", "_windows")

    def __init__(
        self, values: np.ndarray, lengths: Optional[np.ndarray] = None
    ):
        self.values = values
        self.lengths = lengths
        self._windows = values.size if lengths is None else int(lengths.sum())

    def __len__(self) -> int:
        return self._windows

    def total(self) -> int:
        """Events over every window: Σ values · lengths."""
        if self.lengths is None:
            return int(self.values.sum())
        return int(self.values @ self.lengths)

    def expand(self) -> np.ndarray:
        """One count per window."""
        if self.lengths is None:
            return self.values
        return np.repeat(self.values, self.lengths)
