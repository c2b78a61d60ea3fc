"""Reference reads for the taps' window readers.

The taps are read only through window readers (``repro.sim.events``).
These references read what a tap recorded directly, with none of the
readers' incremental machinery:

- every timestamp an :class:`~repro.sim.events.EventTap` recorded, and
  every record a :class:`~repro.sim.events.LabeledEventTap` recorded,
  merged with one stable sort by time (so ties keep record order), then
  sliced to a window or counted per Δt window;
- a :class:`~repro.sim.events.RateSegmentTap`'s segments sorted by start
  (stable) and spread over every Δt window by
  :func:`spread_segment_counts`, one float per window, rounded half-up
  with an epsilon. The segment reader's runs must expand to exactly
  these integers.
"""

import numpy as np

from repro.sim.events import GridChunk


def recorded_times(tap):
    """Every timestamp ``tap`` recorded, stable-sorted by time."""
    tap._flush_stage()
    chunks = [
        c.times() if isinstance(c, GridChunk) else c for c in tap._time_chunks
    ]
    times = np.concatenate([np.zeros(0, dtype=np.int64)] + chunks)
    return times[np.argsort(times, kind="stable")]


def times_in(tap, t0, t1):
    """Sorted timestamps of ``tap`` within ``[t0, t1)``."""
    times = recorded_times(tap)
    lo, hi = np.searchsorted(times, [t0, t1], side="left")
    return times[lo:hi]


def event_density_counts(tap, dt, t0, t1):
    """Event count of ``tap`` per Δt window tiling ``[t0, t1)``."""
    n_windows = -(-(t1 - t0) // dt)
    idx = (times_in(tap, t0, t1) - t0) // dt
    return np.bincount(idx, minlength=n_windows).astype(np.int64)


def recorded_records(tap):
    """(times, replacers, victims) ``tap`` recorded, stable-sorted by time."""
    times, reps, vics = (
        np.concatenate([np.zeros(0, dtype=dtype)] + chunks)
        for chunks, dtype in (
            (tap._time_chunks, np.int64),
            (tap._replacer_chunks, np.int16),
            (tap._victim_chunks, np.int16),
        )
    )
    order = np.argsort(times, kind="stable")
    return times[order], reps[order], vics[order]


def records_in(tap, t0, t1):
    """Records of ``tap`` within ``[t0, t1)``, time-sorted."""
    times, reps, vics = recorded_records(tap)
    lo, hi = np.searchsorted(times, [t0, t1], side="left")
    return times[lo:hi], reps[lo:hi], vics[lo:hi]


def spread_segment_counts(
    counts: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    rates: np.ndarray,
    dt: int,
    t0: int,
    t1: int,
    n_windows: int,
) -> None:
    """Spread each segment's event mass over the Δt windows tiling [t0, t1).

    Mutates the float64 ``counts`` array in place. Vectorized over
    segments: each segment contributes its partial first/last windows via
    scatter-add and its uniform middle windows via a difference array
    (one cumulative sum at the end), so cost is O(#segments + #windows)
    regardless of segment lengths.

    This is the per-window reference (:func:`segment_density_counts`); the
    streaming :class:`~repro.sim.events.SegmentWindowReader` reaches the
    same integers in run form through
    :func:`~repro.sim.events.segment_count_runs`, which keeps this
    kernel's float accumulation order.
    """
    if starts.size == 0:
        return
    s = np.maximum(starts, t0)
    e = np.minimum(ends, t1)
    first = (s - t0) // dt
    last = (e - 1 - t0) // dt
    single = first == last
    # Segments confined to one window.
    np.add.at(
        counts, first[single], (e[single] - s[single]) * rates[single]
    )
    multi = ~single
    if multi.any():
        fm, lm = first[multi], last[multi]
        sm, em, rm = s[multi], e[multi], rates[multi]
        first_end = t0 + (fm + 1) * dt
        np.add.at(counts, fm, (first_end - sm) * rm)
        last_start = t0 + lm * dt
        np.add.at(counts, lm, (em - last_start) * rm)
        # Uniform middle windows fm+1 .. lm-1 via difference array.
        diff = np.zeros(n_windows + 1, dtype=np.float64)
        has_mid = lm > fm + 1
        np.add.at(diff, fm[has_mid] + 1, rm[has_mid] * dt)
        np.add.at(diff, lm[has_mid], -rm[has_mid] * dt)
        counts += np.cumsum(diff[:-1], out=diff[:-1])


def recorded_segments(tap):
    """(starts, ends, rates) a rate-segment ``tap`` recorded, stable-sorted
    by start."""
    starts, ends, rates = tap._columns()
    order = np.argsort(starts, kind="stable")
    return starts[order], ends[order], rates[order]


def segment_mass(tap):
    """Expected total events over every segment a rate-segment ``tap``
    recorded (0.0 when it recorded none)."""
    starts, ends, rates = recorded_segments(tap)
    return float(((ends - starts) * rates).sum())


def segment_density_counts(tap, dt, t0, t1):
    """Events of a rate-segment ``tap`` per Δt window in ``[t0, t1)``."""
    n_windows = -(-(t1 - t0) // dt)
    starts, ends, rates = recorded_segments(tap)
    sel = (starts < t1) & (ends > t0)
    counts = np.zeros(n_windows, dtype=np.float64)
    spread_segment_counts(
        counts, starts[sel], ends[sel], rates[sel], dt, t0, t1, n_windows
    )
    counts += 0.5
    counts += 1e-6
    return np.floor(counts).astype(np.int64)
