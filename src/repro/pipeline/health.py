"""Pipeline health states: how components degrade instead of dying.

A production CC-auditor runs against noisy, lossy, adversarially
perturbed event trains; one bad observation must not kill the whole
:class:`~repro.pipeline.session.DetectionSession`. Every analyzer (and
the session itself) therefore carries a :class:`Health` value with a
one-way state machine::

    OK ──(flagged input fault | recovered push error)──▶ DEGRADED
    DEGRADED ──(FAIL_AFTER consecutive push errors)──▶ FAILED

``FAIL_AFTER`` (8) is a constant of :mod:`repro.pipeline.session`.

- **OK** — every observation was folded cleanly; the verdict carries
  full evidentiary weight.
- **DEGRADED** — the analyzer is still producing verdicts, but some
  input was lost, perturbed, or rejected (a gap was recorded, or the
  source flagged injected faults). Detection results remain usable but
  are computed over impaired evidence.
- **FAILED** — the analyzer raised repeatedly and is quarantined: it no
  longer receives observations and its verdict reports no detection
  with an explanatory note.

Transitions are sticky: evidence impaired at quantum *q* stays impaired
for the rest of the session, so health never moves back toward ``OK``.
:func:`worst` combines health values (``FAILED > DEGRADED > OK``), which
is how a session rolls per-unit health up to a single value.

See docs/ROBUSTNESS.md for the full degradation semantics.
"""

from __future__ import annotations

import enum
from typing import Iterable


class Health(enum.Enum):
    """Operational health of one pipeline component (ordered, one-way)."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"

    @property
    def rank(self) -> int:
        return _RANK[self]


_RANK = {Health.OK: 0, Health.DEGRADED: 1, Health.FAILED: 2}


def worst(values: Iterable[Health]) -> Health:
    """The most severe health among ``values`` (``OK`` when empty)."""
    result = Health.OK
    for value in values:
        if value.rank > result.rank:
            result = value
    return result
