"""Property tests: health-machine composition under interleaving.

The serve path composes the health ladder three ways at once — fault
tags from the wire (``shed:*``/``lost:*``), analyzer push errors, and
the session's quarantine overlay — so these properties pin the algebra:
``worst()`` is a commutative idempotent max, per-unit health moves one
way only under ANY interleaving of events, and shed gaps always surface
in the verdict's notes (shedding is never silent).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pipeline import (
    BurstAnalyzer,
    DetectionSession,
    Health,
    QuantumObservation,
    WindowCounts,
    worst,
)
from repro.pipeline.session import FAIL_AFTER

pytestmark = pytest.mark.resilience

HEALTHS = st.sampled_from(list(Health))


class TestWorstRollUp:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(HEALTHS))
    def test_worst_is_max_by_rank(self, values):
        assert worst(values).rank == max(
            (v.rank for v in values), default=0
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(HEALTHS), st.randoms())
    def test_order_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert worst(values) is worst(shuffled)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(HEALTHS), HEALTHS)
    def test_monotone_under_extension(self, values, extra):
        assert worst([*values, extra]).rank >= worst(values).rank
        assert worst([*values, extra]).rank >= extra.rank

    @settings(max_examples=50, deadline=None)
    @given(st.lists(HEALTHS, min_size=1))
    def test_idempotent(self, values):
        combined = worst(values)
        assert worst([combined, *values]) is combined


class _ScriptedAnalyzer(BurstAnalyzer):
    """Raises on push exactly where the script says to."""

    def __init__(self, script, **kwargs):
        kwargs.setdefault("unit", "membus")
        kwargs.setdefault("dt", 100)
        super().__init__(**kwargs)
        self.script = script
        self.cursor = 0

    def push(self, obs):
        index = self.cursor
        self.cursor += 1
        if index < len(self.script) and self.script[index] == "error":
            raise RuntimeError("scripted failure")
        super().push(obs)


# One event per quantum: a clean push, a push carrying a shed/lost
# fault tag, or an analyzer error.
EVENT = st.sampled_from(["clean", "shed", "lost", "error"])
EVENTS = st.lists(EVENT, min_size=1, max_size=60)

# The same events drawn as runs of up to FAIL_AFTER + 2 quanta, so a run
# of FAIL_AFTER consecutive errors, the only way to FAILED, comes up
# next to clean and faulted quanta in most draws.
EVENT_RUNS = st.lists(
    st.tuples(EVENT, st.integers(1, FAIL_AFTER + 2)),
    min_size=1,
    max_size=12,
).map(lambda runs: [event for event, n in runs for _ in range(n)])


def _obs(quantum, faults=()):
    return QuantumObservation(
        quantum=quantum,
        t0=quantum * 1000,
        t1=(quantum + 1) * 1000,
        counts={
            "membus": WindowCounts(np.array([1, 0, 2, 1], dtype=np.int64))
        },
        faults=tuple(faults),
    )


class TestOneWayLadder:
    @settings(max_examples=60, deadline=None)
    @given(EVENT_RUNS)
    @example(
        ["shed", "clean"] + ["error"] * FAIL_AFTER + ["lost", "error"]
    )
    @example(
        ["error"] * (FAIL_AFTER - 1) + ["lost"]
        + ["error"] * (FAIL_AFTER - 1) + ["shed"]
    )
    def test_health_rank_never_decreases(self, events):
        """Under ANY interleaving of clean/faulted/erroring quanta the
        combined unit health climbs the OK→DEGRADED→FAILED ladder one
        way, and FAILED appears only via the consecutive-error rule."""
        session = DetectionSession()
        session.add_analyzer(_ScriptedAnalyzer(script=events))
        ranks = []
        consecutive = 0
        max_consecutive = 0
        for quantum, event in enumerate(events):
            faults = {"shed": ("shed:*",), "lost": ("lost:*",)}.get(
                event, ()
            )
            session.push_quantum(_obs(quantum, faults))
            consecutive = consecutive + 1 if event == "error" else 0
            max_consecutive = max(max_consecutive, consecutive)
            ranks.append(session.unit_health("membus").rank)
        assert ranks == sorted(ranks), "health moved back down the ladder"
        final = session.unit_health("membus")
        if any(e != "clean" for e in events):
            assert final.rank >= Health.DEGRADED.rank
        else:
            assert final is Health.OK
        if max_consecutive >= FAIL_AFTER:
            assert final is Health.FAILED
        if final is Health.FAILED:
            assert max_consecutive >= FAIL_AFTER
        # The verdict reports the same combined health.
        verdict = session.close().verdict_for("membus")
        assert verdict.health == final.value

    @settings(max_examples=60, deadline=None)
    @given(EVENTS)
    def test_shed_gaps_surface_in_notes(self, events):
        """Every run containing shed/lost quanta names them in the
        verdict notes with per-kind tallies — shedding is never
        silent."""
        session = DetectionSession()
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        tallies = {"shed": 0, "lost": 0}
        for quantum, event in enumerate(events):
            faults = ()
            if event in tallies:
                tallies[event] += 1
                faults = (f"{event}:*",)
            session.push_quantum(_obs(quantum, faults))
        verdict = session.close().verdict_for("membus")
        notes = " ".join(verdict.notes)
        flagged = sum(tallies.values())
        if flagged:
            assert verdict.health == "degraded"
            assert f"{flagged} flagged input fault(s)" in notes
            for kind, count in tallies.items():
                if count:
                    assert f"{kind} x{count}" in notes
                else:
                    assert kind not in notes
        else:
            assert "fault" not in notes
