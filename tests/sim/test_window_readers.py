"""Window readers: the columnar taps' incremental per-quantum cursors.

Each reader consumes its tap's append-only columns exactly once while
matching a stable sort of everything the tap recorded
(``tests/sim/tap_reference.py``) bit for bit — the property the columnar
hot path rests on (docs/PERFORMANCE.md). Readers are the taps' only read
path, so these tests also pin that a fresh reader sees the whole record,
and the loud failure modes: rewinding cursors and events recorded behind
an already-read window.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventTap, LabeledEventTap, RateSegmentTap
from tests.sim import tap_reference as ref


class TestEventWindowReader:
    def test_read_counts_matches_density_counts(self):
        tap = EventTap("t")
        rng = np.random.default_rng(3)
        reader = tap.window_reader()
        cursor = 0
        for q in range(5):
            times = np.sort(
                rng.integers(cursor, cursor + 10_000, size=200)
            ).astype(np.int64)
            tap.record_batch(times)
            got = reader.read_counts(700, cursor, cursor + 10_000)
            want = ref.event_density_counts(tap, 700, cursor, cursor + 10_000)
            assert got.lengths is None  # one entry per window
            np.testing.assert_array_equal(got.values, want)
            assert got.values.dtype == np.int64
            cursor += 10_000

    def test_unsorted_and_interleaved_chunks(self):
        tap = EventTap("t")
        tap.record_batch(np.array([50, 10, 90], dtype=np.int64))
        tap.record_batch(np.array([20], dtype=np.int64))
        tap.record_batch(np.array([70, 30], dtype=np.int64))
        reader = tap.window_reader()
        np.testing.assert_array_equal(
            reader.read(0, 100), [10, 20, 30, 50, 70, 90]
        )

    def test_partial_window_carries_pending(self):
        tap = EventTap("t")
        tap.record_batch(np.array([5, 15, 25], dtype=np.int64))
        reader = tap.window_reader()
        np.testing.assert_array_equal(reader.read(0, 10), [5])
        np.testing.assert_array_equal(reader.read(10, 30), [15, 25])

    def test_mid_run_subscribe_sees_history(self):
        tap = EventTap("t")
        tap.record_batch(np.array([1, 2, 3], dtype=np.int64))
        reader = tap.window_reader()
        np.testing.assert_array_equal(reader.read(0, 10), [1, 2, 3])

    def test_cursor_cannot_rewind(self):
        tap = EventTap("t")
        tap.record_batch(np.array([5], dtype=np.int64))
        reader = tap.window_reader()
        reader.read(0, 10)
        with pytest.raises(SimulationError):
            reader.read(5, 15)

    def test_empty_window_is_fine(self):
        tap = EventTap("t")
        reader = tap.window_reader()
        assert reader.read(0, 10).size == 0
        assert reader.read_counts(5, 10, 20).values.tolist() == [0, 0]

    def test_late_event_behind_cursor_raises(self):
        tap = EventTap("t")
        reader = tap.window_reader()
        reader.read(0, 100)
        tap.record_batch(np.array([50], dtype=np.int64))
        with pytest.raises(SimulationError):
            reader.read(100, 200)

    def test_full_history_reads_unaffected_by_reader(self):
        # The reader is non-destructive: trace export and figures open a
        # fresh reader and keep seeing the tap's whole history.
        tap = EventTap("t")
        tap.record_batch(np.array([5, 15], dtype=np.int64))
        reader = tap.window_reader()
        reader.read(0, 10)
        np.testing.assert_array_equal(tap.window_reader().read(0, 20), [5, 15])
        counts = tap.window_reader().read_counts(10, 0, 20)
        assert counts.values.tolist() == [1, 1]


_QUANTUM = 1_000
# Offsets on a coarse lattice so timestamps from different bursts tie.
_offset = st.integers(0, 19).map(lambda i: 50 * i)
_tap_op = st.one_of(
    st.tuples(
        st.just("grid"), _offset, st.integers(1, 6),
        st.sampled_from([1, 50, 250, 1_000, 1_700]),
    ),
    st.tuples(
        st.just("batch"),
        st.lists(st.integers(0, 39).map(lambda i: 50 * i), max_size=5),
    ),
)


def _assert_same_columns(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype


@pytest.mark.parity
class TestGridChunkEquivalence:
    """``record_grid`` keeps bursts symbolic in the tap's record; every
    read must equal ``record_batch`` of the same materialized bursts."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_tap_op, max_size=6), min_size=1, max_size=6))
    def test_grid_reads_match_materialized(self, quanta):
        grid, batch = EventTap("grid"), EventTap("batch")
        readers = (grid.window_reader(), batch.window_reader())
        for q, ops in enumerate(quanta):
            base = q * _QUANTUM
            for op in ops:
                if op[0] == "grid":
                    _, off, count, period = op
                    grid.record_grid(base + off, count, period)
                    batch.record_batch(base + off + period * np.arange(count))
                else:
                    _, offs = op
                    for tap in (grid, batch):
                        tap.record_batch(base + np.array(offs, np.int64))
            _assert_same_columns(
                [readers[0].read(base, base + _QUANTUM)],
                [readers[1].read(base, base + _QUANTUM)],
            )
            assert grid.count == batch.count
        end = (len(quanta) + 2) * _QUANTUM
        for tap in (grid, batch):
            # A burst may run past ``end``: compare the whole record.
            np.testing.assert_array_equal(
                tap.window_reader().read(0, np.iinfo(np.int64).max),
                ref.recorded_times(batch),
            )
            np.testing.assert_array_equal(
                tap.window_reader().read_counts(300, 0, end).values,
                ref.event_density_counts(batch, 300, 0, end),
            )
        _assert_same_columns(
            [readers[0].read(len(quanta) * _QUANTUM, end)],
            [readers[1].read(len(quanta) * _QUANTUM, end)],
        )

    def test_tie_order_across_contexts(self):
        # Bursts of two senders interleave on equal timestamps (tie order
        # shows in the labeled reader's columns, tested below).
        grid, batch = EventTap("grid"), EventTap("batch")
        grid.record_grid(0, 3, 100)
        grid.record_grid(100, 2, 100)
        batch.record_batch(np.array([0, 100, 200]))
        batch.record_batch(np.array([100, 200]))
        times = grid.window_reader().read(0, 300)
        assert times.tolist() == [0, 100, 100, 200, 200]
        _assert_same_columns(
            [times, ref.recorded_times(grid)],
            [batch.window_reader().read(0, 300), ref.recorded_times(batch)],
        )

    def test_record_stays_symbolic(self):
        tap = EventTap("t")
        tracemalloc.start()
        try:
            tap.record_grid(0, 10**7, 2)
            # A burst of another shape flushes the staged grid into the
            # record.
            tap.record_grid(5, 1, 1)
            assert tap.count == 10**7 + 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 10M events would take 80 MB


class TestSegmentWindowReader:
    def test_matches_density_counts_across_quanta(self):
        tap = RateSegmentTap("d")
        reader = tap.window_reader()
        # Segments straddling window boundaries.
        for start, end, rate in (
            (0, 2_500, 0.5),
            (2_500, 2_600, 2.0),
            (4_000, 11_000, 0.25),
        ):
            tap.record_segments_batch([start], [end], [rate])
        reads = []
        for q in range(3):
            t0, t1 = q * 5_000, (q + 1) * 5_000
            got = reader.read_counts(500, t0, t1)
            want = ref.segment_density_counts(tap, 500, t0, t1)
            assert len(got) == want.size
            np.testing.assert_array_equal(got.expand(), want)
            reads.append((got, want))
        # No returned run column shares state with a later read.
        for got, want in reads:
            np.testing.assert_array_equal(got.expand(), want)


class TestLabeledWindowReader:
    def test_matches_records_in(self):
        tap = LabeledEventTap("l2")
        rng = np.random.default_rng(8)
        reader = tap.window_reader()
        cursor = 0
        for q in range(4):
            times = np.sort(
                rng.integers(cursor, cursor + 1_000, size=50)
            ).astype(np.int64)
            reps = rng.integers(0, 8, size=50).astype(np.int64)
            vics = rng.integers(0, 8, size=50).astype(np.int64)
            tap.record_batch(times, reps, vics)
            got = reader.read(cursor, cursor + 1_000)
            want = ref.records_in(tap, cursor, cursor + 1_000)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            cursor += 1_000

    def test_tie_order_matches_record_order(self):
        tap = LabeledEventTap("l2")
        for t, r, v in ((10, 1, 2), (12, 7, 7), (10, 3, 4), (10, 5, 6)):
            tap.record_batch([t], [r], [v])
        got = tap.window_reader().read(0, 20)
        assert [c.tolist() for c in got] == [
            [10, 10, 10, 12], [1, 3, 5, 7], [2, 4, 6, 7]
        ]
        for g, w in zip(got, ref.records_in(tap, 0, 20)):
            np.testing.assert_array_equal(g, w)

    def test_cursor_cannot_rewind(self):
        tap = LabeledEventTap("l2")
        tap.record_batch([5], [0], [1])
        reader = tap.window_reader()
        reader.read(0, 10)
        with pytest.raises(SimulationError):
            reader.read(0, 10)
