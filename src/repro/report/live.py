"""Live watch view: a redrawing per-quantum status block for long runs.

:class:`WatchSink` is a verdict sink (see :mod:`repro.pipeline.sinks`)
that keeps a small status block — one line per audited unit plus a
header — redrawn every quantum, in place on a TTY using ANSI cursor
movement. On a non-TTY stream (file, pipe, CI log) it degrades to
appending a full block per quantum, so redirected output stays a
readable log instead of a soup of escape codes.

Wired up as ``repro detect --watch``.
"""

from __future__ import annotations

import sys
from typing import List, Optional, TextIO

from repro.core.report import DetectionReport, UnitVerdict

_ANSI_PREV_LINE = "\x1b[F"  # cursor up one line, to column 0
_ANSI_CLEAR_LINE = "\x1b[2K"  # erase entire line


class LiveBlock:
    """In-place redraw of a multi-line status block on a TTY.

    The redraw machinery WatchSink has always used, extracted so other
    live views (``repro top``) share it: on a TTY the previous block is
    erased with ANSI cursor movement and redrawn; on a non-TTY stream
    each draw appends a fresh block, keeping redirected output a
    readable log.
    """

    def __init__(
        self, stream: Optional[TextIO] = None, sticky: Optional[bool] = None
    ):
        self.stream = stream if stream is not None else sys.stderr
        if sticky is None:
            isatty = getattr(self.stream, "isatty", None)
            sticky = bool(isatty and isatty())
        self.sticky = sticky
        self._drawn_lines = 0

    def draw(self, lines: List[str]) -> None:
        out = []
        if self.sticky and self._drawn_lines:
            out.append(
                (_ANSI_PREV_LINE + _ANSI_CLEAR_LINE) * self._drawn_lines
            )
        out.append("\n".join(lines))
        out.append("\n")
        self.stream.write("".join(out))
        self.stream.flush()
        self._drawn_lines = len(lines) if self.sticky else 0

    def release(self) -> None:
        """Keep the current block on screen; stop redrawing over it."""
        self._drawn_lines = 0


def _signal(verdict: UnitVerdict) -> str:
    if verdict.method == "burst":
        lr = (
            f"{verdict.max_likelihood_ratio:.3f}"
            if verdict.max_likelihood_ratio is not None
            else "  n/a"
        )
        return f"lr={lr}"
    peak = (
        f"{verdict.max_peak:.3f}" if verdict.max_peak is not None else "  n/a"
    )
    return f"peak={peak} windows={verdict.oscillating_windows or 0}"


class WatchSink:
    """Renders a compact, continuously refreshed detection status block."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        sticky: Optional[bool] = None,
    ):
        #: Redraw in place (ANSI) vs append blocks. Defaults to whether
        #: the stream is an interactive terminal (see LiveBlock).
        self._block = LiveBlock(stream, sticky=sticky)

    @property
    def stream(self) -> TextIO:
        return self._block.stream

    @property
    def sticky(self) -> bool:
        return self._block.sticky

    # ------------------------------------------------------------- rendering

    def _render(self, header: str, report: DetectionReport) -> List[str]:
        lines = [header]
        for verdict in report.verdicts:
            flag = "LIKELY" if verdict.detected else "clear "
            health = (
                "" if verdict.health == "ok"
                else f"  [{verdict.health.upper()}]"
            )
            lines.append(
                f"  {verdict.unit:<18} {verdict.method:<11} {flag} "
                f"{_signal(verdict)}{health}"
            )
        if not report.verdicts:
            lines.append("  (no audited units)")
        return lines

    def _draw(self, lines: List[str]) -> None:
        self._block.draw(lines)

    # ------------------------------------------------------------- sink API

    def on_quantum(self, quantum: int, report: DetectionReport) -> None:
        self._draw(
            self._render(f"CC-Hunter watch — quantum {quantum}", report)
        )

    def on_close(self, report: DetectionReport) -> None:
        verdict = (
            "channel activity detected" if report.any_detected
            else "no channel activity"
        )
        self._draw(
            self._render(
                f"CC-Hunter watch — session closed: {verdict}", report
            )
        )
        # The final block stays on screen; stop treating it as redrawable.
        self._block.release()
