"""Exact-parity proof: the divider's numpy usage tracks vs the list tracks.

:class:`repro.sim.resources.divider.DividerUnit` keeps each context's
usage as append-only numpy columns read as views, and expands a
registration's overlapping pairs with one ``np.repeat``. The reference
keeps the Python-list tracks and per-interval expansion they replaced,
verbatim, in :mod:`tests.sim.divider_reference`. Hypothesis drives both
units through the same random sequence of ``saturate``, ``random_use``
and ``run_loop`` calls over two or three contexts, some of them
registered out of time order. Return values, raised errors, wait-tap
segments in record order, every context's usage columns and the RNG
state must match bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DividerConfig
from repro.errors import SimulationError
from repro.sim.events import RateSegmentTap
from repro.sim.resources.divider import DividerUnit
from repro.util.rng import make_rng
from tests.sim.divider_reference import ReferenceDividerUnit

pytestmark = pytest.mark.parity

#: Offset of an operation's start from its context's clock: mostly
#: forward, sometimes back far enough to be out of time order.
GAP = st.integers(-3_000, 20_000)

#: Intensities on both sides of the contention threshold, so loops
#: meet both contended and idle stretches.
INTENSITY = st.sampled_from((0.1, 0.25, 0.5, 1.0))


@st.composite
def operations(draw):
    n_ctx = draw(st.integers(2, 3))
    ctx = st.integers(0, n_ctx - 1)
    op = st.one_of(
        st.tuples(st.just("saturate"), ctx, GAP, st.integers(1, 60_000)),
        st.tuples(
            st.just("random_use"), ctx, GAP,
            st.integers(1, 300_000),
            st.sampled_from((0.0, 0.05, 0.3, 0.7, 1.0)),
            st.integers(1, 40_000),
            INTENSITY,
        ),
        st.tuples(
            st.just("run_loop"), ctx, GAP,
            st.integers(1, 300), st.integers(1, 8),
        ),
    )
    return draw(st.lists(op, min_size=1, max_size=25))


def _units(seed):
    return tuple(
        cls(0, DividerConfig(), RateSegmentTap("wait"), make_rng(seed))
        for cls in (DividerUnit, ReferenceDividerUnit)
    )


def _call(unit, name, ctx, start, args):
    """``(result, error message)`` of one operation on ``unit``."""
    try:
        return getattr(unit, name)(ctx, start, *args), None
    except SimulationError as exc:
        return None, str(exc)


def _assert_same_result(got, want):
    if isinstance(want, tuple):  # run_loop: (end time, latencies)
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert got == want


def _assert_same_state(unit, ref):
    for got, want in zip(unit.wait_tap._columns(), ref.wait_tap._columns()):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert list(unit._usage) == list(ref._usage)
    for ctx, track in unit._usage.items():
        assert len(track) == len(ref._usage[ctx])
        for got, want in zip(track.arrays(), ref._usage[ctx].arrays()):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert unit._rng.bit_generator.state == ref._rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(operations(), st.integers(0, 2**16))
def test_random_operations_match_list_reference(ops, seed):
    unit, ref = _units(seed)
    clock = {}
    for name, ctx, gap, *args in ops:
        start = max(0, clock.get(ctx, 0) + gap)
        want, want_error = _call(ref, name, ctx, start, args)
        got, got_error = _call(unit, name, ctx, start, args)
        assert got_error == want_error
        if want_error is None:
            _assert_same_result(got, want)
            clock[ctx] = want[0] if isinstance(want, tuple) else want
        _assert_same_state(unit, ref)


def test_out_of_order_registration_raises_on_both():
    for unit in _units(0):
        unit.saturate(0, 10_000, 5_000)
        unit.run_loop(1, 12_000, 40, 4)
        with pytest.raises(SimulationError, match="time order"):
            unit.saturate(0, 14_000, 100)
        with pytest.raises(SimulationError, match="time order"):
            unit.run_loop(1, 0, 10, 4)
        assert [len(t) for t in unit._usage.values()] == [1, 1]


def test_tracks_grow_past_many_doublings():
    unit, ref = _units(3)
    for k in range(200):
        for u in (unit, ref):
            for ctx in (0, 1):
                u.random_use(ctx, 100_000 * k, 100_000, duty=0.5,
                             burst_cycles=1_000, intensity=0.5)
    _assert_same_state(unit, ref)
    assert len(unit._usage[0]) > 5_000
    assert unit.wait_tap._columns()[0].size > 1_000
