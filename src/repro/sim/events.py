"""Indicator-event collection.

Shared resources report the paper's *indicator events* into taps:

- :class:`EventTap` — sparse events with explicit cycle timestamps
  (memory bus lock operations).
- :class:`RateSegmentTap` — dense event activity expressed as
  ``(start, end, rate)`` segments. The divider channel produces one
  wait-on-busy event every few cycles for millions of cycles;
  materializing each timestamp would be wasteful, and the detector only
  ever needs *per-Δt-window counts*, which segments yield exactly.
- :class:`LabeledEventTap` — cache conflict misses carrying the
  (replacer context, victim context) ordered pair the CC-auditor's vector
  registers record.

Taps accumulate for the whole run in append-only chunk columns and are
read only through *window readers* (``window_reader()``), which consume
those columns incrementally: each read costs O(events in the window)
instead of re-sorting the whole history at every quantum boundary, and
any number of readers can coexist on one tap. A tap is never cleared, so
a reader's cursor stays valid for the tap's whole life, and a fresh
reader's first read merges the whole record with one stable sort: trace
export and plots read ``[0, horizon)`` through a fresh reader.

Periodic bursts (a bus-lock sender's ``count`` locks every ``period``
cycles) stay symbolic as :class:`GridChunk` rows, in the tap's record and
in the memory bus's own lock record alike. Events are built only when a
reader consumes the chunk, and the bus answers contention queries from
the rows in closed form, so a long session's record grows with its
bursts, not with its events.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import CONTEXT_ID_BITS, context_ids_fit
from repro.errors import SimulationError
from repro.util.runs import WindowCounts


def _concat_chunks(chunks: Sequence[np.ndarray], dtype) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([np.asarray(c, dtype=dtype) for c in chunks])


#: What :meth:`GridChunk.latest_at` reports for a time no event precedes.
NO_EVENT = np.iinfo(np.int64).min


class GridChunk(NamedTuple):
    """Periodic bursts kept symbolic: the one grid format.

    Burst ``i`` holds ``count`` events at ``starts[i] + period * k`` for
    ``k`` in ``range(count)``. :class:`EventTap` stores a run of
    same-shape bursts as one chunk; :class:`~repro.sim.resources.bus.MemoryBus`
    keeps one single-burst chunk per ``lock_burst`` as its lock record.
    """

    starts: np.ndarray
    count: int
    period: int

    @property
    def size(self) -> int:
        """Number of events the chunk stands for."""
        return self.starts.size * self.count

    def times(self) -> np.ndarray:
        """Every event, burst by burst (row-major, so record order)."""
        offsets = self.period * np.arange(self.count, dtype=np.int64)
        return (self.starts[:, None] + offsets).ravel()

    def latest_at(self, times: np.ndarray) -> np.ndarray:
        """Per time (a 1-D column), the latest event at or before it.

        Closed form per burst, so no event is built; :data:`NO_EVENT`
        where no event precedes the time.
        """
        starts = self.starts[:, None]
        k = np.minimum((times - starts) // self.period, self.count - 1)
        return np.where(k >= 0, starts + k * self.period, NO_EVENT).max(axis=0)


def _chunk_times(chunk: Union[np.ndarray, GridChunk]) -> np.ndarray:
    """A tap chunk's timestamp column, expanding a symbolic grid."""
    return chunk.times() if isinstance(chunk, GridChunk) else chunk


def _heads(column: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from the one before (and the first)."""
    heads = np.empty(column.size, dtype=bool)
    heads[:1] = True
    np.not_equal(column[1:], column[:-1], out=heads[1:])
    return heads


def _distinct(column: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``column``.

    ``np.unique`` hashes instead, over ten times slower on a few
    thousand window indices.
    """
    column = np.sort(column)
    return column[_heads(column)]


def segment_count_runs(
    starts: np.ndarray,
    ends: np.ndarray,
    rates: np.ndarray,
    dt: int,
    t0: int,
    t1: int,
) -> WindowCounts:
    """Per-Δt window counts over ``[t0, t1)`` as runs, in O(segments).

    The segment columns come sorted by start (stable, so ties keep record
    order), and the runs expand to exactly what the per-window reference
    kernel ``spread_segment_counts`` in the tests yields, rounded half-up
    with an epsilon that keeps float residue of the cumulative sum from
    flipping an x.5 boundary either way. Between edge windows (a
    segment's partial first or last window) a window holds only the
    difference array's cumulative sum, constant between its steps; an
    edge window adds its partial sums in the kernel's order. Runs break
    at every edge window, the window after it and every step, and equal
    neighbours merge (docs/ALGORITHMS.md §2.2 has the exactness
    argument).
    """
    n_windows = -(-(t1 - t0) // dt)
    s = np.maximum(starts, t0)
    e = np.minimum(ends, t1)
    first = (s - t0) // dt
    last = (e - 1 - t0) // dt
    single = first == last
    multi = ~single
    fm, lm = first[multi], last[multi]
    sm, em, rm = s[multi], e[multi], rates[multi]
    # Middle windows fm+1 .. lm-1 hold r·dt each: a step up at fm+1 and
    # a step down at lm. level[k] is the cumulative sum after the k-th
    # distinct step (level[0] = 0.0), each step's entries added as the
    # difference array adds them: every rise, then every fall.
    mid = lm > fm + 1
    step_at = np.concatenate([fm[mid] + 1, lm[mid]])
    steps = _distinct(step_at)
    level = np.zeros(steps.size + 1)
    np.add.at(
        level[1:],
        np.searchsorted(steps, step_at),
        np.concatenate([rm[mid] * dt, -rm[mid] * dt]),
    )
    np.cumsum(level, out=level)
    edges = _distinct(np.concatenate([first, lm]))
    acc = np.zeros(edges.size)
    np.add.at(
        acc,
        np.searchsorted(edges, first[single]),
        (e[single] - s[single]) * rates[single],
    )
    np.add.at(acc, np.searchsorted(edges, fm), (t0 + (fm + 1) * dt - sm) * rm)
    np.add.at(acc, np.searchsorted(edges, lm), (em - (t0 + lm * dt)) * rm)
    acc += level[np.searchsorted(steps, edges, side="right")]
    cuts = _distinct(np.concatenate([[0], edges, edges + 1, steps]))
    cuts = cuts[cuts < n_windows]
    spread = level[np.searchsorted(steps, cuts, side="right")]
    spread[np.searchsorted(cuts, edges)] = acc
    spread += 0.5
    spread += 1e-6
    np.floor(spread, out=spread)
    counts = spread.astype(np.int64)
    keep = _heads(counts)
    return WindowCounts(
        counts[keep], np.diff(cuts[keep], append=n_windows)
    )


class EventTap:
    """Collects sparse indicator events as cycle timestamps.

    Storage is columnar: timestamp chunks are int64 arrays appended as
    recorded, or symbolic :class:`GridChunk` bursts, which readers expand
    in record order only when they consume them.
    """

    def __init__(self, name: str):
        self.name = name
        self._time_chunks: List[Union[np.ndarray, GridChunk]] = []
        # Periodic bursts stage as (starts, count, period) and flush into
        # one symbolic GridChunk before any other chunk is appended, so
        # flushing never changes record order.
        self._stage_grid: Optional[Tuple[List[int], int, int]] = None

    def record_batch(self, times: np.ndarray) -> None:
        """Record many events (times need not be sorted)."""
        arr = np.asarray(times, dtype=np.int64)
        if arr.size == 0:
            return
        self._flush_stage()
        self._time_chunks.append(arr)

    def record_grid(self, start: int, count: int, period: int) -> None:
        """Record ``count`` events at ``start, start+period, ...``.

        Bursts stay symbolic — one Python-list append per burst, then one
        :class:`GridChunk` per run of consecutive same-shape bursts — and
        are expanded only when a reader consumes them. The chunk's
        row-major expansion equals record order, so sorting and tie order
        match per-burst ``record_batch`` calls exactly.
        """
        if count <= 0 or period <= 0:
            raise SimulationError("event grid needs positive count and period")
        g = self._stage_grid
        if g is not None and g[1] == count and g[2] == period:
            g[0].append(int(start))
        else:
            self._flush_stage()
            self._stage_grid = ([int(start)], count, period)

    def _flush_stage(self) -> None:
        g = self._stage_grid
        if g is not None:
            starts, count, period = g
            self._stage_grid = None
            self._time_chunks.append(
                GridChunk(np.asarray(starts, dtype=np.int64), count, period)
            )

    @property
    def count(self) -> int:
        n = sum(c.size for c in self._time_chunks)
        if self._stage_grid is not None:
            n += len(self._stage_grid[0]) * self._stage_grid[1]
        return n

    def window_reader(self) -> "EventWindowReader":
        """An incremental windowed reader over this tap."""
        return EventWindowReader(self)


class EventWindowReader:
    """Incremental windowed timestamp reader over one :class:`EventTap`.

    Streaming consumers read consecutive half-open windows; the reader
    consumes the tap's append-only chunk list through a private cursor
    and carries events recorded ahead of the current window (resources
    commit usage covering an operation's whole future duration) into the
    windows they belong to. Independent readers never interfere with
    each other.

    Chunks are merged with a stable sort, and carried events always
    precede later-recorded chunks, so tie order equals the global record
    order: consecutive reads return exactly what one read of their union
    on a fresh reader returns.
    """

    def __init__(self, tap: EventTap):
        self._tap = tap
        self._chunk_idx = 0
        self._pending = np.zeros(0, dtype=np.int64)
        self._cursor: Optional[int] = None

    def _merged(self) -> np.ndarray:
        """All unconsumed timestamps (pending carry + new chunks), sorted."""
        tap = self._tap
        tap._flush_stage()
        chunks = tap._time_chunks
        if len(chunks) > self._chunk_idx:
            merged = np.concatenate(
                [self._pending]
                + [_chunk_times(c) for c in chunks[self._chunk_idx:]]
            )
            self._chunk_idx = len(chunks)
            if merged.size > 1 and (merged[1:] < merged[:-1]).any():
                merged.sort(kind="stable")
            if (
                self._cursor is not None
                and merged.size
                and merged[0] < self._cursor
            ):
                raise SimulationError(
                    f"tap {tap.name!r} recorded an event at cycle "
                    f"{int(merged[0])}, before the reader cursor at "
                    f"{self._cursor} — windows already read would be wrong"
                )
            self._pending = merged
        return self._pending

    def read(self, t0: int, t1: int) -> np.ndarray:
        """Sorted timestamps in ``[t0, t1)``; advances the cursor to t1."""
        if t1 < t0:
            raise SimulationError(f"window end {t1} precedes start {t0}")
        if self._cursor is not None and t0 < self._cursor:
            raise SimulationError(
                f"window readers advance monotonically: [{t0}, {t1}) "
                f"starts before the cursor at {self._cursor}"
            )
        times = self._merged()
        hi = int(np.searchsorted(times, t1, side="left"))
        window = times[:hi]
        self._pending = times[hi:]
        self._cursor = int(t1)
        lo = int(np.searchsorted(window, t0, side="left"))
        return window[lo:]

    def read_counts(self, dt: int, t0: int, t1: int) -> WindowCounts:
        """Event count per Δt window tiling ``[t0, t1)``.

        One subtraction, one integer divide, one bincount over the
        window's column, and one entry per window.
        """
        if dt <= 0:
            raise SimulationError(f"Δt must be positive, got {dt}")
        n_windows = -(-(t1 - t0) // dt)
        times = self.read(t0, t1)
        if times.size == 0:
            return WindowCounts(np.zeros(n_windows, dtype=np.int64))
        idx = (times - t0) // dt
        counts = np.bincount(idx, minlength=n_windows)
        return WindowCounts(counts.astype(np.int64, copy=False))


class RateSegmentTap:
    """Collects dense event activity as rate segments.

    The segment representation is exact for the quantity the detector uses
    (events per Δt window) and allows million-event contention phases to be
    recorded in O(1). ``materialize_times`` synthesizes explicit timestamps
    for plots; synthesis is deterministic.

    Segments are stored as append-only chunks, one ``(starts, ends,
    rates)`` triple of int64/int64/float64 columns per recording call,
    in record order.
    """

    def __init__(self, name: str):
        self.name = name
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def record_segments_batch(
        self, starts: np.ndarray, ends: np.ndarray, rates: np.ndarray
    ) -> None:
        """Record many segments at once (empty/zero-rate entries skipped)."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        rates = np.asarray(rates, dtype=np.float64)
        keep = (ends > starts) & (rates > 0)
        if not keep.any():
            return
        self._chunks.append((starts[keep], ends[keep], rates[keep]))

    def _columns(
        self, since: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, rates) of chunks ``since`` on, in record order."""
        chunks = self._chunks[since:]
        return tuple(
            _concat_chunks([chunk[i] for chunk in chunks], dtype)
            for i, dtype in enumerate((np.int64, np.int64, np.float64))
        )

    def window_reader(self) -> "SegmentWindowReader":
        """An incremental windowed reader over this tap."""
        return SegmentWindowReader(self)

    def materialize_times(
        self, t0: int, t1: int, max_events: Optional[int] = None
    ) -> np.ndarray:
        """Synthesize explicit sorted timestamps for ``[t0, t1)``.

        Segment events are placed on a uniform grid at each segment's rate.
        If ``max_events`` is given and the total would exceed it, events are
        uniformly thinned (for plotting).
        """
        starts, ends, rates = self._columns()
        sel = (starts < t1) & (ends > t0)
        pieces = [np.zeros(0, dtype=np.int64)]
        for s, e, r in zip(starts[sel], ends[sel], rates[sel]):
            lo, hi = max(int(s), t0), min(int(e), t1)
            period = 1.0 / r
            n = int((hi - lo) * r)
            if n <= 0:
                continue
            pieces.append((lo + (np.arange(n) + 0.5) * period).astype(np.int64))
        times = np.sort(np.concatenate(pieces))
        if max_events is not None and times.size > max_events:
            keep = np.linspace(0, times.size - 1, max_events).astype(np.int64)
            times = times[keep]
        return times


class SegmentWindowReader:
    """Incremental windowed reader over a :class:`RateSegmentTap`.

    The dense counterpart of :class:`EventWindowReader`: new segment
    chunks are consumed from the tap exactly once, segments still
    overlapping future windows are carried (sorted by start, tie order =
    record order), and each read returns the quantum's counts as runs of
    equal-valued windows from :func:`segment_count_runs`. A read costs
    O(segments), not O(windows).
    """

    def __init__(self, tap: RateSegmentTap):
        self._tap = tap
        self._chunk_idx = 0
        self._p_starts = np.zeros(0, dtype=np.int64)
        self._p_ends = np.zeros(0, dtype=np.int64)
        self._p_rates = np.zeros(0, dtype=np.float64)
        self._cursor: Optional[int] = None

    def _merge_new(self) -> None:
        tap = self._tap
        n = len(tap._chunks)
        if n == self._chunk_idx:
            return
        new_starts, new_ends, new_rates = tap._columns(self._chunk_idx)
        self._chunk_idx = n
        if (
            self._cursor is not None
            and new_starts.size
            and int(new_starts.min()) < self._cursor
        ):
            raise SimulationError(
                f"tap {tap.name!r} recorded a segment starting at cycle "
                f"{int(new_starts.min())}, before the reader cursor at "
                f"{self._cursor} — windows already read would be wrong"
            )
        starts = np.concatenate([self._p_starts, new_starts])
        order = np.argsort(starts, kind="stable")
        self._p_starts = starts[order]
        self._p_ends = np.concatenate([self._p_ends, new_ends])[order]
        self._p_rates = np.concatenate([self._p_rates, new_rates])[order]

    def read_counts(self, dt: int, t0: int, t1: int) -> WindowCounts:
        """Events per Δt window in ``[t0, t1)``, as runs; advances cursor."""
        if dt <= 0:
            raise SimulationError(f"Δt must be positive, got {dt}")
        if t1 < t0:
            raise SimulationError(f"window end {t1} precedes start {t0}")
        if self._cursor is not None and t0 < self._cursor:
            raise SimulationError(
                f"window readers advance monotonically: [{t0}, {t1}) "
                f"starts before the cursor at {self._cursor}"
            )
        self._merge_new()
        starts, ends, rates = self._p_starts, self._p_ends, self._p_rates
        sel = (starts < t1) & (ends > t0)
        counts = segment_count_runs(
            starts[sel], ends[sel], rates[sel], dt, t0, t1
        )
        keep = ends > t1
        if not keep.all():
            self._p_starts = starts[keep]
            self._p_ends = ends[keep]
            self._p_rates = rates[keep]
        self._cursor = int(t1)
        return counts


class LabeledEventTap:
    """Cache conflict-miss events labeled (replacer context, victim context).

    This mirrors the CC-auditor's 128-byte vector registers, which record
    the :data:`~repro.config.CONTEXT_ID_BITS`-bit context ids of the
    replacer (the context requesting the block) and the victim (the owner
    context in the replaced block's metadata) for every detected conflict
    miss.
    """

    def __init__(self, name: str):
        self.name = name
        self._time_chunks: List[np.ndarray] = []
        self._replacer_chunks: List[np.ndarray] = []
        self._victim_chunks: List[np.ndarray] = []

    def record_batch(
        self, times: np.ndarray, replacers: np.ndarray, victims: np.ndarray
    ) -> None:
        t = np.asarray(times, dtype=np.int64)
        r = np.asarray(replacers, dtype=np.int16)
        v = np.asarray(victims, dtype=np.int16)
        if not (t.size == r.size == v.size):
            raise SimulationError("labeled event batch arrays must align")
        if t.size == 0:
            return
        if not (context_ids_fit(r) and context_ids_fit(v)):
            raise SimulationError(
                f"context ids must fit in {CONTEXT_ID_BITS} bits"
            )
        self._time_chunks.append(t)
        self._replacer_chunks.append(r)
        self._victim_chunks.append(v)

    @property
    def count(self) -> int:
        return sum(c.size for c in self._time_chunks)

    def window_reader(self) -> "LabeledWindowReader":
        """An incremental windowed reader over this tap."""
        return LabeledWindowReader(self)


class LabeledWindowReader:
    """Incremental windowed reader over a :class:`LabeledEventTap`.

    Three parallel columns (times, replacers, victims) are consumed
    chunk-wise and merged with one stable argsort per read, so tie order
    is record order — which matters here, because the (replacer, victim)
    sequence becomes the oscillation analyzer's identifier train.
    """

    def __init__(self, tap: LabeledEventTap):
        self._tap = tap
        self._chunk_idx = 0
        self._p_times = np.zeros(0, dtype=np.int64)
        self._p_reps = np.zeros(0, dtype=np.int16)
        self._p_vics = np.zeros(0, dtype=np.int16)
        self._cursor: Optional[int] = None

    def _merge_new(self) -> None:
        tap = self._tap
        chunks = tap._time_chunks
        if len(chunks) == self._chunk_idx:
            return
        times = np.concatenate([self._p_times] + chunks[self._chunk_idx:])
        reps = np.concatenate(
            [self._p_reps] + tap._replacer_chunks[self._chunk_idx:]
        )
        vics = np.concatenate(
            [self._p_vics] + tap._victim_chunks[self._chunk_idx:]
        )
        self._chunk_idx = len(chunks)
        if times.size > 1 and (times[1:] < times[:-1]).any():
            order = np.argsort(times, kind="stable")
            times, reps, vics = times[order], reps[order], vics[order]
        if self._cursor is not None and times.size and times[0] < self._cursor:
            raise SimulationError(
                f"tap {tap.name!r} recorded an event at cycle "
                f"{int(times[0])}, before the reader cursor at "
                f"{self._cursor} — windows already read would be wrong"
            )
        self._p_times, self._p_reps, self._p_vics = times, reps, vics

    def read(
        self, t0: int, t1: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Records within ``[t0, t1)``, time-sorted; advances the cursor."""
        if t1 < t0:
            raise SimulationError(f"window end {t1} precedes start {t0}")
        if self._cursor is not None and t0 < self._cursor:
            raise SimulationError(
                f"window readers advance monotonically: [{t0}, {t1}) "
                f"starts before the cursor at {self._cursor}"
            )
        self._merge_new()
        times, reps, vics = self._p_times, self._p_reps, self._p_vics
        hi = int(np.searchsorted(times, t1, side="left"))
        self._p_times = times[hi:]
        self._p_reps = reps[hi:]
        self._p_vics = vics[hi:]
        self._cursor = int(t1)
        lo = int(np.searchsorted(times[:hi], t0, side="left"))
        return times[lo:hi], reps[lo:hi], vics[lo:hi]
