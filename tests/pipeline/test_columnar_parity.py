"""Exact-parity proof: tap window reads vs reference reads.

The machine source reads every tap through an incremental window reader
(docs/PERFORMANCE.md, "Columnar hot path"). The references read what
each tap recorded directly (``tests/sim/tap_reference.py``): a stable
sort of every bus lock, counted per Δt window; the per-window segment
kernel over every divider segment (a rate-segment tap's runs are
expanded to one count per window first); and a stable sort of every
conflict record for the conflict channel. One seeded session per channel
family records every observation the analyzers receive and checks it
against the reference reads of that quantum's window. Analyzers are a
pure function of their observations, so equal observations give equal
verdicts, evidence and metrics; archive export and replay are covered by
``tests/test_traces.py``.
"""

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.faults.injectors import FaultInjector
from repro.sim.events import RateSegmentTap
from repro.util.bitstream import Message
from tests.sim import tap_reference as ref

pytestmark = pytest.mark.parity


class _Recorder(FaultInjector):
    """Pass-through injector that keeps every observation it is handed."""

    kind = "record"

    def __init__(self):
        super().__init__()
        self.observations = []

    def apply(self, obs, conflict_channel="cache"):
        self.observations.append(obs)
        return obs


@pytest.mark.parametrize("kind", ("membus", "divider", "cache"))
def test_observations_match_full_history_reads(kind):
    recorder = _Recorder()
    run = run_channel_session(
        kind,
        Message.random(12, 7),
        bandwidth_bps=100.0,
        seed=11,
        max_quanta=16,
        injectors=(recorder,),
    )
    source = run.hunter.source
    observations = recorder.observations
    assert len(observations) == run.quanta
    events = 0
    for obs in observations:
        assert sorted(obs.counts) == sorted(source._burst_taps)
        for name, (spec, tap) in source._burst_taps.items():
            counts = obs.counts[name]
            # The tap kind decides the form: runs from the divider's
            # rate segments, one entry per window from bus locks.
            assert (counts.lengths is not None) == (kind == "divider")
            density = (
                ref.segment_density_counts
                if isinstance(tap, RateSegmentTap)
                else ref.event_density_counts
            )
            want = density(tap, spec.dt, obs.t0, obs.t1)
            assert len(counts) == want.size
            np.testing.assert_array_equal(counts.expand(), want)
            events += counts.total()
        if kind != "cache":
            assert obs.conflicts is None
            continue
        # The vector registers drain losslessly, so the labels the
        # auditor hands on equal the tap's own records exactly.
        reference = ref.records_in(run.machine.cache_miss_tap, obs.t0, obs.t1)
        observed = obs.conflicts
        for got, want in zip(
            (observed.times, observed.replacers, observed.victims), reference
        ):
            np.testing.assert_array_equal(got, want)
        events += int(observed.times.size)
    assert events > 0
