"""CC-Hunter's detection algorithms (the paper's primary contribution).

Two detectors over indicator-event trains:

- **Recurrent burst pattern detection** for combinational hardware
  (:mod:`density`, :mod:`burst`, :mod:`clustering`): Δt selection,
  burst/likelihood-ratio analysis of event-density histograms, and
  k-means recurrence clustering of discretized histograms.
- **Oscillatory pattern detection** for memory hardware (:mod:`autocorr`,
  :mod:`oscillation`): autocorrelograms of labeled conflict-miss trains and
  periodicity scoring.

:class:`~repro.core.detector.CCHunter` is the user-facing facade that
attaches both to a simulated machine.
"""

from repro.core.autocorr import binary_autocorrelogram
from repro.core.burst import (
    BurstAnalysis,
    analyze_histogram,
    find_threshold_bin,
)
from repro.core.calibration import (
    AlphaCalibration,
    DeltaTRegime,
    assess_delta_t,
    calibrate_alpha,
)
from repro.core.clustering import RecurrenceAnalysis
from repro.core.density import choose_delta_t
from repro.core.oscillation import OscillationAnalysis, analyze_autocorrelogram
from repro.core.report import DetectionReport, UnitVerdict

# CCHunter sits above the streaming pipeline (repro.pipeline), whose
# analyzers import this package's estimator modules — so the facade is
# resolved lazily to keep the package import acyclic.
_LAZY_DETECTOR = ("AuditUnit", "CCHunter")


def __getattr__(name: str):
    if name in _LAZY_DETECTOR:
        from repro.core import detector

        return getattr(detector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "choose_delta_t",
    "BurstAnalysis",
    "AlphaCalibration",
    "DeltaTRegime",
    "assess_delta_t",
    "calibrate_alpha",
    "analyze_histogram",
    "find_threshold_bin",
    "RecurrenceAnalysis",
    "binary_autocorrelogram",
    "OscillationAnalysis",
    "analyze_autocorrelogram",
    "AuditUnit",
    "CCHunter",
    "DetectionReport",
    "UnitVerdict",
]
