"""Hardened-pipeline tests: quarantine, sink isolation, never-raise.

These pin the graceful-degradation contract of docs/ROBUSTNESS.md: an
analyzer or sink failure is a health transition plus bookkeeping, never
a session-killing exception; and no analyzer ever raises on a
well-typed observation stream, however degenerate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    BurstAnalyzer,
    CollectingSink,
    DetectionSession,
    Health,
    OscillationAnalyzer,
    QuantumObservation,
    WindowCounts,
    worst,
)
from repro.pipeline.session import (
    FAIL_AFTER,
    SINK_BACKOFF_BASE,
    SINK_FAIL_LIMIT,
    SINK_MAX_RETRIES,
)
from repro.pipeline.source import ConflictRecords

pytestmark = pytest.mark.resilience


def _obs(quantum, counts, conflicts=None, width=1000):
    return QuantumObservation(
        quantum=quantum,
        t0=quantum * width,
        t1=(quantum + 1) * width,
        counts={name: WindowCounts(c) for name, c in counts.items()},
        conflicts=conflicts,
    )


class _ExplodingAnalyzer(BurstAnalyzer):
    """Raises on push after ``detonate_at`` quanta; verdict optional too."""

    def __init__(self, detonate_at=0, verdict_raises=False, **kwargs):
        kwargs.setdefault("unit", "membus")
        kwargs.setdefault("dt", 100)
        super().__init__(**kwargs)
        self.detonate_at = detonate_at
        self.verdict_raises = verdict_raises
        self.pushes = 0

    def push(self, obs):
        self.pushes += 1
        if self.pushes > self.detonate_at:
            raise RuntimeError("boom")
        super().push(obs)

    def verdict(self):
        if self.verdict_raises:
            raise RuntimeError("verdict boom")
        return super().verdict()


class _FlakySink:
    """Fails the first ``fail_first`` attempts of every dispatch."""

    def __init__(self, fail_first=0, fail_close=False):
        self.fail_first = fail_first
        self.fail_close = fail_close
        self.attempts = 0
        self.quanta = []
        self.closed = 0

    def on_quantum(self, quantum, report):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise IOError("sink down")
        self.quanta.append(quantum)

    def on_close(self, report):
        if self.fail_close:
            raise IOError("close down")
        self.closed += 1


class TestHealthStateMachine:
    def test_worst_ordering(self):
        assert worst(()) is Health.OK
        assert worst((Health.OK, Health.DEGRADED)) is Health.DEGRADED
        assert worst((Health.DEGRADED, Health.FAILED)) is Health.FAILED

    def test_analyzer_error_degrades_then_fails(self):
        session = DetectionSession()
        analyzer = session.add_analyzer(_ExplodingAnalyzer(detonate_at=1))
        counts = {"membus": np.zeros(4, dtype=np.int64)}
        session.push_quantum(_obs(0, counts))
        assert session.unit_health("membus") is Health.OK
        # Quanta 1 .. FAIL_AFTER - 1 raise: degraded, still fed.
        for quantum in range(1, FAIL_AFTER):
            session.push_quantum(_obs(quantum, counts))
            assert session.unit_health("membus") is Health.DEGRADED
        session.push_quantum(_obs(FAIL_AFTER, counts))
        assert session.unit_health("membus") is Health.FAILED
        # Quarantined: the analyzer stops being fed, the session lives.
        session.push_quantum(_obs(FAIL_AFTER + 1, counts))
        assert analyzer.pushes == FAIL_AFTER + 1
        verdict = session.current_verdicts().verdict_for("membus")
        assert verdict.health == "failed"
        assert any("quarantined" in note for note in verdict.notes)

    def test_success_resets_consecutive_count(self):
        class Sometimes(_ExplodingAnalyzer):
            def push(self, obs):
                self.pushes += 1
                if self.pushes % 2 == 0:
                    raise RuntimeError("intermittent")
                BurstAnalyzer.push(self, obs)

        session = DetectionSession()
        session.add_analyzer(Sometimes())
        counts = {"membus": np.zeros(4, dtype=np.int64)}
        for quantum in range(4 * FAIL_AFTER):
            session.push_quantum(_obs(quantum, counts))
        # Never two consecutive failures, so never FAILED.
        assert session.unit_health("membus") is Health.DEGRADED

    def test_verdict_error_yields_synthetic_verdict(self):
        session = DetectionSession()
        session.add_analyzer(_ExplodingAnalyzer(
            detonate_at=10_000, verdict_raises=True
        ))
        session.push_quantum(_obs(0, {"membus": np.zeros(4, dtype=np.int64)}))
        report = session.current_verdicts()
        verdict = report.verdict_for("membus")
        assert not verdict.detected
        assert any("verdict unavailable" in note for note in verdict.notes)
        assert verdict.health in ("degraded", "failed")

    def test_errors_counted_in_metrics(self):
        metrics = MetricsRegistry()
        session = DetectionSession(metrics=metrics)
        session.add_analyzer(_ExplodingAnalyzer(detonate_at=0))
        session.push_quantum(_obs(0, {"membus": np.zeros(4, dtype=np.int64)}))
        snapshot = metrics.to_dict()["metrics"]
        series = snapshot["cchunter_analyzer_errors_total"]["series"]
        assert series[0]["labels"] == {"unit": "membus"}
        assert series[0]["value"] == 1


class TestSinkIsolation:
    def _session(self, *sinks, **kwargs):
        kwargs.setdefault("sleep", lambda _s: None)
        session = DetectionSession(sinks=list(sinks), **kwargs)
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        return session

    def test_failing_sink_does_not_starve_others(self):
        bad = _FlakySink(fail_first=10_000)
        good = CollectingSink()
        session = self._session(bad, good)
        for quantum in range(SINK_FAIL_LIMIT + 2):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(4, dtype=np.int64)})
            )
        assert [q for q, _r in good.reports] == list(
            range(SINK_FAIL_LIMIT + 2)
        )

    def test_transient_failure_recovers_via_retry(self):
        sink = _FlakySink(fail_first=SINK_MAX_RETRIES)
        session = self._session(sink)
        session.push_quantum(_obs(0, {"membus": np.zeros(4, dtype=np.int64)}))
        assert sink.quanta == [0]  # the last retry landed

    def test_backoff_is_exponential(self):
        delays = []
        sink = _FlakySink(fail_first=10_000)
        session = self._session(sink, sleep=delays.append)
        session.push_quantum(_obs(0, {"membus": np.zeros(4, dtype=np.int64)}))
        assert delays == [
            SINK_BACKOFF_BASE * 2**retry for retry in range(SINK_MAX_RETRIES)
        ]

    def test_quarantine_after_fail_limit(self):
        sink = _FlakySink(fail_first=10_000)
        session = self._session(sink)
        for quantum in range(SINK_FAIL_LIMIT + 2):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(4, dtype=np.int64)})
            )
        # SINK_FAIL_LIMIT exhausted dispatches quarantine the sink; no
        # further attempts.
        assert sink.attempts == SINK_FAIL_LIMIT * (1 + SINK_MAX_RETRIES)

    def test_on_close_guaranteed_for_every_sink(self):
        """Regression: a quarantined or mid-list-failing sink still gets
        on_close, and a failing on_close doesn't rob later sinks."""
        quarantined = _FlakySink(fail_first=10_000)
        close_fails = _FlakySink(fail_close=True)
        last = _FlakySink()
        session = self._session(quarantined, close_fails, last)
        for quantum in range(SINK_FAIL_LIMIT):
            session.push_quantum(
                _obs(quantum, {"membus": np.zeros(4, dtype=np.int64)})
            )
        report = session.close()
        assert report is not None
        assert quarantined.closed == 1
        assert last.closed == 1

    def test_sink_errors_counted(self):
        metrics = MetricsRegistry()
        sink = _FlakySink(fail_first=1)
        session = self._session(sink, metrics=metrics)
        session.push_quantum(_obs(0, {"membus": np.zeros(4, dtype=np.int64)}))
        snapshot = metrics.to_dict()["metrics"]
        assert snapshot["cchunter_sink_errors_total"]["series"][0]["value"] == 1
        assert (
            snapshot["cchunter_sink_retries_total"]["series"][0]["value"] == 1
        )


# ---------------------------------------------------------------------------
# Property: no analyzer ever raises on a well-typed observation stream.
# ---------------------------------------------------------------------------

_counts = st.one_of(
    st.just(None),  # channel readout lost this quantum
    st.lists(
        st.integers(min_value=0, max_value=0xFFFF), min_size=0, max_size=32
    ),
)


@st.composite
def _streams(draw):
    quanta = draw(st.integers(min_value=1, max_value=12))
    stream = []
    for quantum in range(quanta):
        counts = {}
        burst = draw(_counts)
        if burst is not None:
            counts["membus"] = np.asarray(burst, dtype=np.int64)
        # Up to 160 records over few contexts, so some windows' dominant
        # pair clears the oscillation analyzer's 64-event floor.
        n = draw(st.integers(min_value=0, max_value=160))
        n_contexts = draw(st.integers(min_value=1, max_value=8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        conflicts = ConflictRecords(
            times=np.sort(rng.integers(0, 1000, size=n)) + quantum * 1000,
            replacers=rng.integers(0, n_contexts, size=n),
            victims=rng.integers(0, n_contexts, size=n),
        )
        stream.append(_obs(quantum, counts, conflicts))
    return stream


class TestAnalyzersNeverRaise:
    @settings(max_examples=60, deadline=None)
    @given(stream=_streams())
    def test_well_typed_streams_only_move_health(self, stream):
        session = DetectionSession()
        session.add_analyzer(BurstAnalyzer(unit="membus", dt=100))
        session.add_analyzer(OscillationAnalyzer(unit="cache"))
        for obs in stream:
            session.push_quantum(obs)
        report = session.current_verdicts()
        assert len(report.verdicts) == 2
        for verdict in report.verdicts:
            assert verdict.health in ("ok", "degraded")
