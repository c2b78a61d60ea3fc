"""Trial-execution subsystem: deterministic parallel sweep fan-out.

See :mod:`repro.exec.runner` for the design and docs/PERFORMANCE.md for
the architecture, determinism guarantees, and measured speedups.
"""

from repro.exec.runner import (
    ExecError,
    TrialFailure,
    TrialRunner,
    TrialSpec,
    default_chunk_size,
    resolve_jobs,
    trial_seed,
)

__all__ = [
    "ExecError",
    "TrialFailure",
    "TrialRunner",
    "TrialSpec",
    "default_chunk_size",
    "resolve_jobs",
    "trial_seed",
]
