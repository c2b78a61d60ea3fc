"""Session close hardening: idempotency, sealing, spec-built sessions.

The multi-tenant service (repro.serve) closes sessions from several
paths — tenant ``bye``, LRU eviction, idle expiry, and supervised
shutdown — so ``close()`` must be safe to call from all of them in any
order, and a closed session must reject late observations loudly.
"""

import numpy as np
import pytest

from repro.errors import DetectionError
from repro.pipeline import (
    ChannelKind,
    ChannelSpec,
    DetectionSession,
    QuantumObservation,
    WindowCounts,
    build_session_from_specs,
)


def _obs(quantum=0, counts=(1, 0, 2)):
    return QuantumObservation(
        quantum=quantum,
        t0=quantum * 30,
        t1=(quantum + 1) * 30,
        counts={"membus": WindowCounts(np.array(counts, dtype=np.int64))},
    )


class _CountingSink:
    def __init__(self):
        self.quanta = 0
        self.closes = 0

    def on_quantum(self, quantum, report):
        self.quanta += 1

    def on_close(self, report):
        self.closes += 1


class _FailingQuantumSink(_CountingSink):
    def on_quantum(self, quantum, report):
        super().on_quantum(quantum, report)
        raise RuntimeError("sink down")


class _ReentrantCloseSink(_CountingSink):
    """A panicking supervisor callback that closes from inside on_close."""

    def __init__(self, session):
        super().__init__()
        self.session = session
        self.reentrant_report = None

    def on_close(self, report):
        super().on_close(report)
        self.reentrant_report = self.session.close()


class TestCloseIdempotency:
    def test_double_close_returns_same_report(self):
        sink = _CountingSink()
        session = DetectionSession(sinks=[sink])
        session.push_quantum(_obs(0))
        first = session.close()
        assert session.closed
        assert session.close() is first
        assert sink.closes == 1

    def test_close_before_any_push(self):
        session = DetectionSession()
        assert not session.closed
        report = session.close()
        assert report.verdicts == ()
        assert session.close() is report

    def test_push_after_close_rejected(self):
        session = DetectionSession()
        session.push_quantum(_obs(0))
        session.close()
        with pytest.raises(DetectionError, match="closed"):
            session.push_quantum(_obs(1))
        # The seal is permanent: the rejected push left no trace.
        assert session.quanta_pushed == 1

    def test_reentrant_close_from_sink_gets_sealed_report(self):
        session = DetectionSession(sleep=lambda _s: None)
        sink = _ReentrantCloseSink(session)
        session.sinks.append(sink)
        report = session.close()
        assert sink.closes == 1
        assert sink.reentrant_report is report


class TestQuarantinedSinkClose:
    def test_quarantined_sink_still_gets_on_close(self):
        bad = _FailingQuantumSink()
        good = _CountingSink()
        session = DetectionSession(
            sinks=[bad, good],
            sink_max_retries=0,
            sink_fail_limit=2,
            sleep=lambda _s: None,
        )
        for q in range(4):
            session.push_quantum(_obs(q))
        # bad exhausted fail_limit dispatches -> quarantined from
        # on_quantum; good kept receiving everything.
        assert bad.quanta == 2
        assert good.quanta == 4
        session.close()
        assert bad.closes == 1
        assert good.closes == 1

    def test_raising_on_close_does_not_starve_other_sinks(self):
        class _FailingCloseSink(_CountingSink):
            def on_close(self, report):
                super().on_close(report)
                raise RuntimeError("close failed")

        bad = _FailingCloseSink()
        good = _CountingSink()
        session = DetectionSession(
            sinks=[bad, good], sink_max_retries=0, sleep=lambda _s: None
        )
        report = session.close()
        assert bad.closes == 1
        assert good.closes == 1
        # The caller still gets the sealed report despite the bad sink.
        assert session.close() is report


class TestBuildSessionFromSpecs:
    SPECS = (
        ChannelSpec(name="membus", kind=ChannelKind.BURST, dt=30),
        ChannelSpec(name="cache", kind=ChannelKind.CONFLICT),
    )

    def test_units_and_methods(self):
        session = build_session_from_specs(self.SPECS)
        assert session.units == ("membus", "cache")
        report = session.current_verdicts()
        assert report.verdict_for("membus").method == "burst"
        assert report.verdict_for("cache").method == "oscillation"
