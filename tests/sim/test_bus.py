"""Tests for the memory bus / QPI lock model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.errors import SimulationError
from repro.sim.events import EventTap
from repro.sim.resources.bus import MemoryBus
from repro.util.rng import make_rng
from tests.sim.tap_reference import recorded_times


@pytest.fixture
def bus():
    config = BusConfig(
        base_latency=160,
        locked_extra_latency=190,
        lock_duration=3000,
        latency_jitter=0,
    )
    return MemoryBus(config, EventTap("lock"), make_rng(0))


class TestLockBurst:
    def test_lock_events_recorded(self, bus):
        end = bus.lock_burst(ctx=0, start=0, count=5, period=5000)
        assert end == 25_000
        times = recorded_times(bus.lock_tap)
        assert times.tolist() == [0, 5000, 10000, 15000, 20000]

    def test_bad_burst_rejected(self, bus):
        with pytest.raises(SimulationError):
            bus.lock_burst(0, 0, count=0, period=100)

    def test_out_of_order_burst_raises(self, bus):
        bus.lock_burst(0, start=10_000, count=1, period=1_000)
        with pytest.raises(SimulationError, match="start order"):
            bus.lock_burst(1, start=9_999, count=100, period=1_000)
        assert bus.total_locks == bus.lock_tap.count == 1
        # An equal start is still in order.
        bus.lock_burst(1, start=10_000, count=2, period=1_000)
        assert bus.total_locks == 3

    def test_locked_at_inside_window(self, bus):
        bus.lock_burst(0, start=1000, count=1, period=5000)
        times = np.array([999, 1000, 3999, 4000, 10_000])
        assert bus.locked_at(times).tolist() == [
            False, True, True, False, False,
        ]

    def test_unlocked_when_no_locks(self, bus):
        assert not bus.locked_at(np.array([0, 100])).any()


class TestSampling:
    def test_uncontended_latency(self, bus):
        _, latencies = bus.sample(ctx=1, start=0, count=10, period=1000)
        assert (latencies == 160).all()

    def test_contended_latency(self, bus):
        bus.lock_burst(0, start=0, count=100, period=2000)
        # Lock duration 3000 > period 2000: bus continuously locked.
        _, latencies = bus.sample(ctx=1, start=1000, count=10, period=1000)
        assert (latencies == 350).all()

    def test_mixed_window(self, bus):
        bus.lock_burst(0, start=0, count=1, period=5000)  # locked [0, 3000)
        _, latencies = bus.sample(ctx=1, start=0, count=6, period=1000)
        assert latencies.tolist() == [350, 350, 350, 160, 160, 160]

    def test_sample_end_time(self, bus):
        end, _ = bus.sample(ctx=1, start=100, count=4, period=500)
        assert end == 2100

    def test_jitter_bounded(self):
        config = BusConfig(latency_jitter=10)
        noisy = MemoryBus(config, EventTap("lock"), make_rng(3))
        _, lat = noisy.sample(0, 0, 1000, 100)
        assert (lat >= config.base_latency - 10).all()
        assert (lat <= config.base_latency + 10).all()


class TestNoiseLocks:
    def test_poisson_noise_rate(self, bus):
        # 1e-4 locks/cycle over 10M cycles -> ~1000 events.
        bus.noise_locks(ctx=3, start=0, duration=10_000_000, rate_per_cycle=1e-4)
        assert 800 <= bus.lock_tap.count <= 1200

    def test_zero_rate_no_events(self, bus):
        bus.noise_locks(ctx=3, start=0, duration=1_000_000, rate_per_cycle=0.0)
        assert bus.lock_tap.count == 0

    def test_negative_rate_rejected(self, bus):
        with pytest.raises(SimulationError):
            bus.noise_locks(0, 0, 100, -0.1)

    def test_noise_locks_contend(self, bus):
        bus.noise_locks(ctx=3, start=0, duration=100_000, rate_per_cycle=0.001)
        times = recorded_times(bus.lock_tap)
        assert bus.locked_at(times).all()


class _RecordingTap(EventTap):
    """A lock tap that also keeps every explicitly timed lock it is sent."""

    def __init__(self):
        super().__init__("lock")
        self.batches = []

    def record_batch(self, times):
        self.batches.append(np.array(times, dtype=np.int64))
        super().record_batch(times)


def _reference_locked_at(locks, times, lock_duration):
    """Brute force: every lock materialized and sorted, then the
    predecessor test over the whole history."""
    starts = np.sort(np.asarray(locks, dtype=np.int64))
    ts = np.asarray(times, dtype=np.int64)
    if starts.size == 0:
        return np.zeros(ts.shape, dtype=bool)
    idx = np.searchsorted(starts, ts, side="right") - 1
    prev = starts[np.maximum(idx, 0)]
    return (idx >= 0) & (ts - prev < lock_duration)


_LOCK_DURATION = 3000
# Times either anywhere or on a 1000-cycle lattice shared with the lock
# duration, so queries land exactly on locks and window edges.
_time = st.one_of(
    st.integers(-10_000, 500_000), st.integers(-10, 500).map(lambda i: 1_000 * i)
)
_bursts = st.tuples(
    st.just("burst"),
    # Gap from the previous burst's start: bursts are issued in start
    # order, and often overlap.
    st.one_of(
        st.integers(0, 50_000), st.integers(0, 50).map(lambda i: 1_000 * i)
    ),
    st.integers(1, 40),  # count
    # Periods below, at and above the lock duration.
    st.sampled_from([1, 7, 1_000, 2_999, 3_000, 3_001, 5_000, 20_000]),
)
_noise = st.tuples(
    st.just("noise"),
    st.integers(0, 200_000),
    st.integers(1, 50_000),  # duration
    st.sampled_from([1e-4, 1e-3, 5e-3]),
)
_queries = st.tuples(
    st.just("query"),
    _time,  # before, inside and after the history
    st.integers(1, 60),  # count
    st.one_of(st.integers(1, 9_000), st.sampled_from([1_000, 3_000])),
)


@pytest.mark.parity
class TestLockHistoryEquivalence:
    """The bus answers contention queries from symbolic burst rows (in
    closed form) and a sorted single-lock array; that must agree with
    the full, materialized history."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(_bursts, _noise, _queries), max_size=30),
        st.integers(0, 2**16),
    )
    def test_locked_at_matches_full_history(self, ops, seed):
        config = BusConfig(lock_duration=_LOCK_DURATION, latency_jitter=0)
        tap = _RecordingTap()
        bus = MemoryBus(config, tap, make_rng(seed))
        bursts = []
        start = 0
        for op in ops + [("query", -10_000, 200, 3_000)]:
            kind, a, b, c = op
            if kind == "burst":
                start += a
                bus.lock_burst(ctx=0, start=start, count=b, period=c)
                bursts.append(start + c * np.arange(b, dtype=np.int64))
            elif kind == "noise":
                bus.noise_locks(ctx=3, start=a, duration=b, rate_per_cycle=c)
            else:
                times = a + c * np.arange(b, dtype=np.int64)
                locks = np.concatenate(
                    bursts + tap.batches + [np.zeros(0, dtype=np.int64)]
                )
                want = _reference_locked_at(locks, times, _LOCK_DURATION)
                np.testing.assert_array_equal(bus.locked_at(times), want)
        assert bus.total_locks == sum(x.size for x in bursts + tap.batches)

    def test_window_edges(self, bus):
        # Lock at 0 holds the bus through cycle 2999; a query of that
        # cycle alone still finds the lock that opens its window.
        bus.lock_burst(0, start=0, count=1, period=5000)
        assert bus.locked_at(np.array([2999])).tolist() == [True]
        assert bus.locked_at(np.array([3000])).tolist() == [False]
        # A lock issued at the last queried cycle already counts.
        bus.lock_burst(0, start=10_000, count=1, period=5000)
        assert bus.locked_at(np.array([9_999, 10_000])).tolist() == [
            False, True,
        ]

    def test_long_burst_reaches_past_later_rows(self, bus):
        bus.lock_burst(1, start=0, count=100, period=1_000)  # to 99_000
        bus.lock_burst(0, start=10_000, count=1, period=1_000)
        bus.lock_burst(0, start=20_000, count=1, period=1_000)
        times = np.array([50_500, 99_500, 102_000])
        assert bus.locked_at(times).tolist() == [True, True, False]

    def test_record_is_symbolic(self, bus):
        # A long burst costs one row, and a query builds none of its locks.
        tracemalloc.start()
        try:
            bus.lock_burst(0, start=0, count=10**7, period=2)
            locked = bus.locked_at(np.array([5 * 10**6, 2 * 10**7 + 3000]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert locked.tolist() == [True, False]
        assert bus.total_locks == 10**7
        assert peak < 1 << 20  # the 10M locks would take 80 MB


class TestLongSessionMemory:
    def test_lock_history_memory_grows_with_bursts_not_locks(self):
        """A 200-quantum covert session issues 1.6 M bus locks. Any
        per-lock copy of them (8 bytes each) would take 12.8 MB; the
        symbolic records keep the traced peak to a few MB."""
        from repro.analysis.figures import run_channel_session
        from repro.util.bitstream import Message

        bits = np.zeros(200, dtype=int)
        bits[np.random.default_rng(5).choice(200, 80, replace=False)] = 1
        # Warm up imports and caches outside the traced run.
        run_channel_session(
            "membus", Message.from_bits([1, 0]), bandwidth_bps=10.0,
            noise=False, seed=3,
        )
        tracemalloc.start()
        try:
            run = run_channel_session(
                "membus", Message.from_bits(bits), bandwidth_bps=10.0,
                noise=False, seed=3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.quanta == 200
        assert run.machine.bus.total_locks == 1_600_000
        assert peak < 8 * 2**20
