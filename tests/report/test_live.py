"""Tests for the live watch sink (ANSI redraw vs append fallback)."""

import io

from repro.core.report import DetectionReport, UnitVerdict
from repro.report import WatchSink


def _report(detected=False, health="ok"):
    return DetectionReport(
        verdicts=(
            UnitVerdict(
                unit="membus",
                method="burst",
                detected=detected,
                quanta_analyzed=1,
                max_likelihood_ratio=0.42,
                health=health,
            ),
        )
    )


class _Tty(io.StringIO):
    def isatty(self):
        return True


class TestWatchSink:
    def test_non_tty_appends_blocks(self):
        stream = io.StringIO()
        sink = WatchSink(stream=stream)
        assert not sink.sticky
        sink.on_quantum(0, _report())
        sink.on_quantum(1, _report())
        text = stream.getvalue()
        assert "\x1b[" not in text  # no ANSI on a plain stream
        assert text.count("CC-Hunter watch") == 2
        assert "membus" in text and "lr=0.420" in text

    def test_tty_redraws_in_place(self):
        stream = _Tty()
        sink = WatchSink(stream=stream)
        assert sink.sticky
        sink.on_quantum(0, _report())
        sink.on_quantum(1, _report())
        text = stream.getvalue()
        # Second frame erases the first: cursor-up once per drawn line.
        assert text.count("\x1b[F") == 2
        assert "quantum 1" in text

    def test_close_renders_final_verdict(self):
        stream = io.StringIO()
        sink = WatchSink(stream=stream)
        sink.on_close(_report(detected=True))
        text = stream.getvalue()
        assert "session closed" in text
        assert "channel activity detected" in text
        assert "LIKELY" in text

    def test_health_annotation(self):
        stream = io.StringIO()
        sink = WatchSink(stream=stream)
        sink.on_quantum(0, _report(health="degraded"))
        assert "[DEGRADED]" in stream.getvalue()

    def test_empty_report(self):
        stream = io.StringIO()
        WatchSink(stream=stream).on_quantum(0, DetectionReport(verdicts=()))
        assert "no audited units" in stream.getvalue()
