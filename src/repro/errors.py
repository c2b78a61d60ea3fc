"""Exception hierarchy and exit-code taxonomy for the CC-Hunter reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.

The CLI maps library failures to a documented, stable exit-code
taxonomy (see docs/ROBUSTNESS.md) via :func:`exit_code_for`, so
operators and scripts can branch on *why* an audit failed without
parsing tracebacks:

====  ======================  ===========================================
code  constant                meaning
====  ======================  ===========================================
0     EXIT_OK                 success, nothing detected
2     EXIT_USAGE              bad arguments / unknown spec strings
3     EXIT_DETECTED           success, covert channel activity detected
4     EXIT_CORRUPT_ARCHIVE    trace archive failed checksum/format checks
5     EXIT_MISSING_INPUT      input file missing or unreadable
6     EXIT_TRIAL_FAILURE      trial execution failed (crash/timeout)
7     EXIT_INTERNAL           any other library error
8     EXIT_BENCH_REGRESSION   benchmark regressed past baseline tolerance
9     EXIT_UNAVAILABLE        detection service unreachable / refused
====  ======================  ===========================================
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state."""


class SchedulingError(SimulationError):
    """A process could not be placed on a hardware context."""


class ChannelError(ReproError):
    """A covert-channel protocol was configured or driven incorrectly."""


class DetectionError(ReproError):
    """A detection algorithm received input it cannot analyze."""


class HardwareError(ReproError):
    """A modeled hardware structure was used outside its contract."""


class TraceCorruptionError(DetectionError):
    """A trace archive is corrupt, truncated, or fails checksum checks."""


class FaultSpecError(ReproError):
    """A fault-injection spec string could not be parsed."""


class BenchError(ReproError):
    """A benchmark spec, baseline, or result document is unusable."""


class BenchRegressionError(BenchError):
    """A fresh benchmark run regressed past its baseline tolerance."""


class ServeError(ReproError):
    """The multi-tenant detection service hit a lifecycle problem."""


class WireError(ServeError):
    """A wire frame violated the ``repro.serve.wire/v1`` protocol."""


class FrameDecodeError(WireError):
    """One frame's payload failed validation.

    Recoverable: the length-prefix framing is still aligned, so the
    service answers with an ``error`` frame and keeps the connection.
    Any other :class:`WireError` (bad length, truncated frame) means
    the byte stream itself can no longer be trusted and is fatal.
    """


class ServeUnavailableError(ServeError):
    """The service endpoint is unreachable or refused the session."""


# ------------------------------------------------------------- exit codes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DETECTED = 3
EXIT_CORRUPT_ARCHIVE = 4
EXIT_MISSING_INPUT = 5
EXIT_TRIAL_FAILURE = 6
EXIT_INTERNAL = 7
EXIT_BENCH_REGRESSION = 8
EXIT_UNAVAILABLE = 9


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code an exception maps to (taxonomy above)."""
    # Imported lazily to keep this module dependency-free at import time.
    from repro.exec.runner import ExecError
    from repro.obs.evidence import EvidenceError
    from repro.obs.profile import ProfileError

    if isinstance(exc, BenchRegressionError):
        return EXIT_BENCH_REGRESSION
    if isinstance(exc, (ServeUnavailableError, ConnectionError)):
        return EXIT_UNAVAILABLE
    if isinstance(exc, WireError):
        return EXIT_USAGE
    if isinstance(exc, (TraceCorruptionError, EvidenceError)):
        return EXIT_CORRUPT_ARCHIVE
    if isinstance(exc, (FileNotFoundError, IsADirectoryError, PermissionError)):
        return EXIT_MISSING_INPUT
    if isinstance(exc, ExecError):
        return EXIT_TRIAL_FAILURE
    if isinstance(exc, (FaultSpecError, ConfigError, BenchError, ProfileError)):
        return EXIT_USAGE
    return EXIT_INTERNAL
