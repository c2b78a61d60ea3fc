"""Versioned JSON codecs for the pipeline's boundary types.

The ROADMAP has long claimed :class:`~repro.pipeline.source.QuantumObservation`
and :class:`~repro.core.report.UnitVerdict` "round-trip as JSON", but
until the multi-tenant service needed a wire format nothing in the tree
actually owned that contract. This module does: explicit, versioned
codecs with **strict decoding** — unknown fields are rejected, required
fields must be present and well-typed, and numpy columns come back as
``int64`` exactly (the same dtype discipline
:func:`~repro.util.dtypes.require_int64` enforces on the hot path).

Formats (the ``format`` key is mandatory on decode):

- ``repro.pipeline.observation/v1`` — one quantum's observation:
  burst-channel count columns (one entry per Δt window: runs are
  expanded on encode), optional conflict records, fault tags.
- ``repro.pipeline.verdict/v1`` — one unit's verdict, the exact field
  set of :meth:`UnitVerdict.to_dict` plus the format stamp.
- ``repro.pipeline.channel/v1`` — one :class:`ChannelSpec` (the
  service's ``hello`` frame carries a list of these).

Strictness is the point: a lenient decoder that ignores fields it does
not know silently drops data when the *other* side is newer, which in a
detection service means silently weakened evidence. Version bumps are
explicit; v1 decoders refuse anything else with :class:`CodecError`.

The dataclasses expose thin ``to_json``/``from_json`` conveniences that
delegate here, so offline tools get the codecs for free.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.config import CONTEXT_ID_BITS, context_ids_fit
from repro.core.report import UnitVerdict
from repro.errors import DetectionError
from repro.obs.tracing import TraceContext
from repro.pipeline.source import (
    ChannelKind,
    ChannelSpec,
    ConflictRecords,
    QuantumObservation,
)
from repro.util.runs import WindowCounts

OBSERVATION_FORMAT = "repro.pipeline.observation/v1"
VERDICT_FORMAT = "repro.pipeline.verdict/v1"
CHANNEL_FORMAT = "repro.pipeline.channel/v1"


class CodecError(DetectionError):
    """A payload failed strict schema validation during decode."""


def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise CodecError(
            f"{what}: expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_format(payload: Mapping[str, Any], expected: str, what: str) -> None:
    got = payload.get("format")
    if got != expected:
        raise CodecError(f"{what}: format must be {expected!r}, got {got!r}")


def _reject_unknown(
    payload: Mapping[str, Any], allowed: Tuple[str, ...], what: str
) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise CodecError(
            f"{what}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"v1 accepts only {', '.join(map(repr, allowed))}"
        )


def _require(payload: Mapping[str, Any], field: str, what: str) -> Any:
    if field not in payload:
        raise CodecError(f"{what}: missing required field {field!r}")
    return payload[field]


def _as_int(value: Any, what: str) -> int:
    # bool is an int subclass; a "quantum": true payload is corrupt.
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"{what}: expected an integer, got {value!r}")
    return value


def _int64_column(value: Any, what: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)):
        raise CodecError(
            f"{what}: expected a list of integers, got {type(value).__name__}"
        )
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise CodecError(f"{what}: non-integer element {item!r}")
    return np.asarray(value, dtype=np.int64)


# ------------------------------------------------------------ observation

_OBS_FIELDS = ("format", "quantum", "t0", "t1", "counts", "conflicts", "faults")
_CONFLICT_FIELDS = ("times", "replacers", "victims")


def observation_to_dict(obs: QuantumObservation) -> Dict[str, Any]:
    """JSON-serializable view of one observation (plain scalars/lists)."""
    conflicts = None
    if obs.conflicts is not None:
        conflicts = {
            "times": [int(v) for v in obs.conflicts.times],
            "replacers": [int(v) for v in obs.conflicts.replacers],
            "victims": [int(v) for v in obs.conflicts.victims],
        }
    return {
        "format": OBSERVATION_FORMAT,
        "quantum": int(obs.quantum),
        "t0": int(obs.t0),
        "t1": int(obs.t1),
        "counts": {
            name: column.expand().tolist()
            for name, column in obs.counts.items()
        },
        "conflicts": conflicts,
        "faults": list(obs.faults),
    }


def observation_from_dict(payload: Any) -> QuantumObservation:
    """Decode one observation; raises :class:`CodecError` on any drift."""
    what = "observation"
    payload = _require_mapping(payload, what)
    _check_format(payload, OBSERVATION_FORMAT, what)
    _reject_unknown(payload, _OBS_FIELDS, what)
    quantum = _as_int(_require(payload, "quantum", what), f"{what}.quantum")
    t0 = _as_int(_require(payload, "t0", what), f"{what}.t0")
    t1 = _as_int(_require(payload, "t1", what), f"{what}.t1")
    raw_counts = _require_mapping(
        _require(payload, "counts", what), f"{what}.counts"
    )
    counts = {
        str(name): WindowCounts(
            _int64_column(column, f"{what}.counts[{name!r}]")
        )
        for name, column in raw_counts.items()
    }
    conflicts: Optional[ConflictRecords] = None
    raw_conflicts = payload.get("conflicts")
    if raw_conflicts is not None:
        raw_conflicts = _require_mapping(raw_conflicts, f"{what}.conflicts")
        _reject_unknown(raw_conflicts, _CONFLICT_FIELDS, f"{what}.conflicts")
        columns = {
            field: _int64_column(
                _require(raw_conflicts, field, f"{what}.conflicts"),
                f"{what}.conflicts.{field}",
            )
            for field in _CONFLICT_FIELDS
        }
        sizes = {column.size for column in columns.values()}
        if len(sizes) > 1:
            raise CodecError(
                f"{what}.conflicts: ragged columns (lengths "
                f"{sorted(c.size for c in columns.values())})"
            )
        for field in ("replacers", "victims"):
            if not context_ids_fit(columns[field]):
                raise CodecError(
                    f"{what}.conflicts.{field}: context ids must fit in "
                    f"{CONTEXT_ID_BITS} bits"
                )
        conflicts = ConflictRecords(
            times=columns["times"],
            replacers=columns["replacers"],
            victims=columns["victims"],
        )
    raw_faults = payload.get("faults", [])
    if not isinstance(raw_faults, (list, tuple)):
        raise CodecError(f"{what}.faults: expected a list of tags")
    faults = []
    for tag in raw_faults:
        if not isinstance(tag, str):
            raise CodecError(f"{what}.faults: non-string tag {tag!r}")
        faults.append(tag)
    return QuantumObservation(
        quantum=quantum,
        t0=t0,
        t1=t1,
        counts=counts,
        conflicts=conflicts,
        faults=tuple(faults),
    )


# ---------------------------------------------------------------- verdict

_VERDICT_REQUIRED = ("format", "unit", "method", "detected", "quanta_analyzed")
_VERDICT_FIELDS = _VERDICT_REQUIRED + (
    "max_likelihood_ratio",
    "recurrent",
    "burst_window_fraction",
    "oscillating_windows",
    "max_peak",
    "dominant_period",
    "notes",
    "health",
    "evidence",
)
_HEALTH_VALUES = ("ok", "degraded", "failed")


def verdict_to_dict(verdict: UnitVerdict) -> Dict[str, Any]:
    """JSON-serializable view: :meth:`UnitVerdict.to_dict` + format stamp."""
    out = verdict.to_dict()
    out["format"] = VERDICT_FORMAT
    return out


def _opt_number(payload: Mapping[str, Any], field: str, what: str):
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CodecError(f"{what}.{field}: expected a number, got {value!r}")
    return float(value)


def verdict_from_dict(payload: Any) -> UnitVerdict:
    """Decode one verdict; raises :class:`CodecError` on any drift."""
    what = "verdict"
    payload = _require_mapping(payload, what)
    _check_format(payload, VERDICT_FORMAT, what)
    _reject_unknown(payload, _VERDICT_FIELDS, what)
    for field in _VERDICT_REQUIRED[1:]:
        _require(payload, field, what)
    unit = payload["unit"]
    method = payload["method"]
    if not isinstance(unit, str) or not isinstance(method, str):
        raise CodecError(f"{what}: unit/method must be strings")
    detected = payload["detected"]
    if not isinstance(detected, bool):
        raise CodecError(f"{what}.detected: expected a bool, got {detected!r}")
    health = payload.get("health", "ok")
    if health not in _HEALTH_VALUES:
        raise CodecError(
            f"{what}.health: expected one of {_HEALTH_VALUES}, got {health!r}"
        )
    raw_notes = payload.get("notes", [])
    if not isinstance(raw_notes, (list, tuple)) or any(
        not isinstance(n, str) for n in raw_notes
    ):
        raise CodecError(f"{what}.notes: expected a list of strings")
    recurrent = payload.get("recurrent")
    if recurrent is not None and not isinstance(recurrent, bool):
        raise CodecError(
            f"{what}.recurrent: expected a bool or null, got {recurrent!r}"
        )
    oscillating = payload.get("oscillating_windows")
    if oscillating is not None:
        oscillating = _as_int(oscillating, f"{what}.oscillating_windows")
    evidence = payload.get("evidence")
    if evidence is not None and not isinstance(evidence, Mapping):
        raise CodecError(f"{what}.evidence: expected an object or null")
    return UnitVerdict(
        unit=unit,
        method=method,
        detected=detected,
        quanta_analyzed=_as_int(
            payload["quanta_analyzed"], f"{what}.quanta_analyzed"
        ),
        max_likelihood_ratio=_opt_number(payload, "max_likelihood_ratio", what),
        recurrent=recurrent,
        burst_window_fraction=_opt_number(
            payload, "burst_window_fraction", what
        ),
        oscillating_windows=oscillating,
        max_peak=_opt_number(payload, "max_peak", what),
        dominant_period=_opt_number(payload, "dominant_period", what),
        notes=tuple(raw_notes),
        health=health,
        evidence=dict(evidence) if evidence is not None else None,
    )


# ----------------------------------------------------------- channel spec

_CHANNEL_FIELDS = ("format", "name", "kind", "dt")


def channel_spec_to_dict(spec: ChannelSpec) -> Dict[str, Any]:
    return {
        "format": CHANNEL_FORMAT,
        "name": spec.name,
        "kind": spec.kind.value,
        "dt": None if spec.dt is None else int(spec.dt),
    }


def channel_spec_from_dict(payload: Any) -> ChannelSpec:
    what = "channel spec"
    payload = _require_mapping(payload, what)
    _check_format(payload, CHANNEL_FORMAT, what)
    _reject_unknown(payload, _CHANNEL_FIELDS, what)
    name = _require(payload, "name", what)
    if not isinstance(name, str) or not name:
        raise CodecError(f"{what}.name: expected a non-empty string")
    raw_kind = _require(payload, "kind", what)
    try:
        kind = ChannelKind(raw_kind)
    except ValueError:
        raise CodecError(
            f"{what}.kind: expected one of "
            f"{[k.value for k in ChannelKind]}, got {raw_kind!r}"
        ) from None
    dt = payload.get("dt")
    if dt is not None:
        dt = _as_int(dt, f"{what}.dt")
        if dt <= 0:
            raise CodecError(f"{what}.dt: must be positive, got {dt}")
    if kind is ChannelKind.BURST and dt is None:
        raise CodecError(f"{what}: burst channels require a Δt width")
    return ChannelSpec(name=name, kind=kind, dt=dt)


# ---------------------------------------------------------- trace context

_TRACE_FIELDS = ("trace_id", "parent_span")


def trace_context_to_dict(ctx: "TraceContext") -> Dict[str, Any]:
    """Serialize the optional trace-correlation sub-object.

    Unlike the top-level formats this carries no ``format`` stamp: it
    only ever appears as an *optional* field inside a v1 wire frame
    (``hello``/``obs``), where the frame's own schema scopes it.
    """
    out: Dict[str, Any] = {"trace_id": ctx.trace_id}
    if ctx.parent_span:
        out["parent_span"] = ctx.parent_span
    return out


def trace_context_from_dict(payload: Any) -> "TraceContext":
    what = "trace context"
    payload = _require_mapping(payload, what)
    _reject_unknown(payload, _TRACE_FIELDS, what)
    trace_id = _require(payload, "trace_id", what)
    if not isinstance(trace_id, str) or not trace_id:
        raise CodecError(f"{what}.trace_id: expected a non-empty string")
    if len(trace_id) > 64:
        raise CodecError(
            f"{what}.trace_id: too long ({len(trace_id)} > 64 chars)"
        )
    parent_span = payload.get("parent_span", "")
    if not isinstance(parent_span, str) or len(parent_span) > 64:
        raise CodecError(
            f"{what}.parent_span: expected a string of <= 64 chars"
        )
    return TraceContext(trace_id=trace_id, parent_span=parent_span)


# ------------------------------------------------------------------- json


def observation_to_json(obs: QuantumObservation) -> str:
    return json.dumps(observation_to_dict(obs), sort_keys=True)


def observation_from_json(text: str) -> QuantumObservation:
    return observation_from_dict(_loads(text, "observation"))


def verdict_to_json(verdict: UnitVerdict) -> str:
    return json.dumps(verdict_to_dict(verdict), sort_keys=True)


def verdict_from_json(text: str) -> UnitVerdict:
    return verdict_from_dict(_loads(text, "verdict"))


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CodecError(f"{what}: payload is not valid JSON: {exc}") from None
