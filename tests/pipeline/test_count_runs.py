"""Exact-parity proof: run-length window counts vs one count per window.

A rate-segment tap's reader returns each quantum's counts as runs of
equal-valued windows (:func:`repro.sim.events.segment_count_runs`), and
the auditor slot folds runs with a length-weighted bincount. The
references are the per-window segment kernel ``spread_segment_counts``
over everything the tap recorded (``tests/sim/tap_reference.py``) and the
slot's fold of the runs' expansion. Hypothesis drives:

- the run kernel through segments that straddle quanta, counts that land
  on x.5, a last window cut short, quanta with no segments, and segments
  recorded out of start order;
- the run fold through counts above the 16-bit accumulator and runs long
  enough to saturate a histogram entry;

and one divider session checks that the per-channel and per-analyzer
event and window metrics count every window of every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.figures import run_channel_session
from repro.config import AuditorConfig
from repro.hardware.auditor import MonitorSlot
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import BurstAnalyzer, QuantumObservation, WindowCounts
from repro.sim.events import RateSegmentTap
from repro.util.bitstream import Message
from tests.sim.tap_reference import segment_density_counts

pytestmark = pytest.mark.parity


def _assert_canonical(runs):
    """Maximal runs: every run non-empty, no two neighbours equal."""
    assert runs.values.dtype == runs.lengths.dtype == np.int64
    assert (runs.lengths > 0).all()
    assert (runs.values[1:] != runs.values[:-1]).all()


@st.composite
def _sessions(draw):
    dt = draw(st.integers(1, 700))
    # Quantum lengths that are not a multiple of Δt cut the last window.
    quantum = draw(st.integers(1, 12).map(lambda k: k * dt)) + draw(
        st.sampled_from([0, 0, 1, dt // 2])
    )
    n_quanta = draw(st.integers(1, 4))
    span = n_quanta * quantum
    # Rates of half an event per window put full windows on x.5.
    rate = st.one_of(
        st.floats(1e-3, 3.0),
        st.integers(1, 9).map(lambda m: m / (2 * dt)),
    )
    segment = st.tuples(
        st.integers(0, span),
        st.integers(0, 3 * quantum),  # long enough to straddle quanta
        rate,
    )
    # Each batch is recorded in drawn order, so starts are unsorted.
    batches = draw(st.lists(st.lists(segment, max_size=8), max_size=4))
    return dt, quantum, n_quanta, batches


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_reader_runs_expand_to_density_counts(session):
    dt, quantum, n_quanta, batches = session
    tap = RateSegmentTap("divider")
    for batch in batches:
        starts, lengths, rates = (
            np.array(column, dtype=dtype)
            for column, dtype in zip(
                zip(*batch) if batch else ((), (), ()),
                (np.int64, np.int64, np.float64),
            )
        )
        tap.record_segments_batch(starts, starts + lengths, rates)
    reader = tap.window_reader()
    for q in range(n_quanta):
        t0, t1 = q * quantum, (q + 1) * quantum
        runs = reader.read_counts(dt, t0, t1)
        want = segment_density_counts(tap, dt, t0, t1)
        _assert_canonical(runs)
        assert len(runs) == want.size
        np.testing.assert_array_equal(runs.expand(), want)
        assert runs.total() == int(want.sum())


def test_quantum_without_segments_is_one_run():
    tap = RateSegmentTap("divider")
    tap.record_segments_batch([200_000], [250_000], [0.25])
    reader = tap.window_reader()
    runs = reader.read_counts(500, 0, 100_000)
    assert runs.values.tolist() == [0]
    assert runs.lengths.tolist() == [200]


def test_segments_recorded_between_reads():
    """The simulator records each quantum's waits before reading it."""
    tap = RateSegmentTap("divider")
    reader = tap.window_reader()
    rng = np.random.default_rng(5)
    for q in range(6):
        t0, t1 = q * 50_000, (q + 1) * 50_000
        starts = rng.integers(t0, t1, size=40)
        tap.record_segments_batch(
            starts, starts + rng.integers(1, 80_000, size=40),
            rng.choice([0.5, 0.125, 1 / 3, 0.002], size=40),
        )
        runs = reader.read_counts(500, t0, t1)
        _assert_canonical(runs)
        np.testing.assert_array_equal(
            runs.expand(), segment_density_counts(tap, 500, t0, t1)
        )


def _slot_state(slot):
    return (
        slot.histogram.tolist(),
        slot.events_seen,
        slot.clamp_events,
        slot.entry_saturations,
        slot.windows_recorded,
    )


def _fold_both(config, quanta):
    """Fold each quantum's runs into one slot, their expansion into
    another; return both slots' states after every quantum."""
    by_runs = MonitorSlot("divider", dt=500, config=config)
    by_windows = MonitorSlot("divider", dt=500, config=config)
    states = []
    for values, lengths in quanta:
        values = np.asarray(values, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        by_runs.ingest_window_counts(WindowCounts(values, lengths))
        by_windows.ingest_window_counts(np.repeat(values, lengths))
        states.append((_slot_state(by_runs), _slot_state(by_windows)))
        by_runs.read_and_reset()
        by_windows.read_and_reset()
    return states


_runs = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.one_of(st.integers(0, 140), st.integers(65_530, 70_000)),
            min_size=n, max_size=n,
        ),
        st.lists(st.integers(1, 400), min_size=n, max_size=n),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_runs, min_size=1, max_size=4),
    st.sampled_from([16, 9]),  # 16-bit entries, and 9-bit ones that saturate
)
def test_slot_folds_runs_as_their_expansion(quanta, entry_bits):
    config = AuditorConfig(histogram_entry_bits=entry_bits)
    for by_runs, by_windows in _fold_both(config, quanta):
        assert by_runs == by_windows


def test_long_zero_run_saturates_bin_zero():
    """A divider quantum's 500k empty windows overflow entry 0."""
    [(by_runs, by_windows)] = _fold_both(
        AuditorConfig(), [([0, 70_000, 3], [500_000, 2, 7])]
    )
    assert by_runs == by_windows
    histogram, events, clamps, saturations, windows = by_runs
    assert histogram[0] == AuditorConfig().histogram_entry_max
    assert (events, clamps, saturations, windows) == (140_021, 2, 1, 500_009)


def test_analyzer_metrics_count_every_window_of_a_run():
    values = np.array([0, 96, 0, 70_000], dtype=np.int64)
    lengths = np.array([4_000, 900, 95_000, 100], dtype=np.int64)
    readings = []
    for counts in (
        WindowCounts(values, lengths),
        WindowCounts(np.repeat(values, lengths)),
    ):
        registry = MetricsRegistry()
        analyzer = BurstAnalyzer("divider", 500, metrics=registry)
        for q in range(3):
            analyzer.push(QuantumObservation(
                quantum=q, t0=q * 50_000_000, t1=(q + 1) * 50_000_000,
                counts={"divider": counts},
            ))
        readings.append([
            registry.counter(name, labels={"unit": "divider"}).value
            for name in (
                "cchunter_analyzer_windows_total",
                "cchunter_analyzer_events_total",
                "cchunter_analyzer_clamp_events_total",
                "cchunter_analyzer_entry_saturation_total",
            )
        ])
    assert readings[0] == readings[1]
    assert readings[0][:3] == [3 * 100_000, 3 * 7_086_400, 3 * 100]


def test_source_metrics_count_every_window_of_a_run():
    registry = MetricsRegistry()
    run = run_channel_session(
        "divider", Message.random(6, 3), bandwidth_bps=10.0, seed=3,
        noise=False, metrics=registry,
    )
    (spec,) = run.hunter.source.channels()
    tap = run.machine.divider_wait_tap_for(0)
    span = run.hunter.source.quantum_cycles
    columns = [
        segment_density_counts(tap, spec.dt, q * span, (q + 1) * span)
        for q in range(run.quanta)
    ]
    events = sum(int(column.sum()) for column in columns)
    assert events > 0
    source_events = registry.counter(
        "cchunter_source_channel_events_total",
        labels={"channel": spec.name},
    )
    unit = {"unit": spec.name}
    assert source_events.value == events
    assert registry.counter(
        "cchunter_analyzer_events_total", labels=unit
    ).value == events
    assert registry.counter(
        "cchunter_analyzer_windows_total", labels=unit
    ).value == sum(column.size for column in columns)
