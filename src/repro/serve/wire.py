"""The ``repro.serve.wire/v1`` protocol: length-prefixed JSON frames.

Every frame on the wire is a 4-byte big-endian length prefix followed by
exactly that many bytes of UTF-8 JSON — one object per frame, with a
mandatory ``"type"`` key. Client-to-server types are ``hello`` (tenant
name + channel specs), ``obs`` (one sequenced quantum observation), and
``bye``; server-to-client types are ``welcome`` (initial credits +
verdict cadence), ``credit`` (backpressure grants), ``verdict``
(periodic per-unit verdicts), ``error``, and ``goodbye`` (final
detection report + delivery accounting).

Decoding is **strict**, riding on :mod:`repro.pipeline.codec`: unknown
fields, missing fields, wrong types, and foreign protocol versions all
raise. The error taxonomy separates *recoverable* payload problems
(:class:`~repro.errors.FrameDecodeError` — the length framing is still
aligned, so the service answers with an ``error`` frame and keeps the
connection) from *fatal* stream problems (any other
:class:`~repro.errors.WireError`: absurd length prefix, truncation
mid-frame — the byte stream can no longer be trusted).

The frame-size cap exists because the length prefix is attacker- (or
bug-) controlled: without it, four garbage bytes could make the server
buffer 4 GiB. Frames above :data:`MAX_FRAME_BYTES` are refused on both
encode and decode.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.report import DetectionReport, UnitVerdict
from repro.errors import FrameDecodeError, WireError
from repro.obs.tracing import TraceContext
from repro.pipeline.codec import (
    CodecError,
    channel_spec_from_dict,
    channel_spec_to_dict,
    observation_from_dict,
    observation_to_dict,
    trace_context_from_dict,
    trace_context_to_dict,
    verdict_from_dict,
    verdict_to_dict,
)
from repro.pipeline.source import ChannelSpec, QuantumObservation

WIRE_FORMAT = "repro.serve.wire/v1"

#: Hard cap on one frame's JSON body. Large enough for an observation
#: with tens of thousands of Δt windows or a goodbye report carrying
#: evidence bundles; small enough that a garbage length prefix cannot
#: balloon server memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")


def _need(
    payload: Mapping[str, Any],
    fields: Tuple[str, ...],
    what: str,
    optional: Tuple[str, ...] = (),
):
    for name in fields:
        if name not in payload:
            raise FrameDecodeError(
                f"{what}: missing required field {name!r}"
            )
    unknown = sorted(set(payload) - set(fields) - set(optional))
    if unknown:
        raise FrameDecodeError(
            f"{what}: unknown field(s) {', '.join(map(repr, unknown))}"
        )


def _uint(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FrameDecodeError(
            f"{what}: expected a non-negative integer, got {value!r}"
        )
    return value


def _text(value: Any, what: str, max_len: int = 4096) -> str:
    if not isinstance(value, str) or not value or len(value) > max_len:
        raise FrameDecodeError(
            f"{what}: expected a non-empty string (≤{max_len} chars), "
            f"got {value!r}"
        )
    return value


# ----------------------------------------------------------------- frames


@dataclass(frozen=True)
class Hello:
    """Client opener: who I am and which channels my sessions audit.

    ``trace`` is an **optional** v1 extension (PR 10): a trace-
    correlation context binding the server's spans for this tenant to
    the client's recorder. v1 peers that predate it reject nothing —
    the field is simply absent when unset, and decoders tolerate it
    via ``_need``'s ``optional`` list.
    """

    tenant: str
    channels: Tuple[ChannelSpec, ...]
    trace: Optional[TraceContext] = None

    type = "hello"

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "type": self.type,
            "proto": WIRE_FORMAT,
            "tenant": self.tenant,
            "channels": [channel_spec_to_dict(c) for c in self.channels],
        }
        if self.trace is not None:
            payload["trace"] = trace_context_to_dict(self.trace)
        return payload


@dataclass(frozen=True)
class ObsFrame:
    """One sequenced quantum observation.

    ``seq`` counts the frames the client *sent* (0-based, gapless on an
    honest transport); the server turns sequence gaps into ``lost:*``
    fault tags so transport drops degrade — not silently skew — the
    tenant's verdicts.
    """

    seq: int
    observation: QuantumObservation
    #: Optional per-frame trace context (same v1-tolerated extension
    #: as on :class:`Hello`); ``parent_span`` points at the client's
    #: emit span for *this* observation.
    trace: Optional[TraceContext] = None

    type = "obs"

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "type": self.type,
            "seq": self.seq,
            "observation": observation_to_dict(self.observation),
        }
        if self.trace is not None:
            payload["trace"] = trace_context_to_dict(self.trace)
        return payload


@dataclass(frozen=True)
class Bye:
    """Client is done; asks for the final report (``goodbye``)."""

    type = "bye"

    def to_payload(self) -> Dict[str, Any]:
        return {"type": self.type}


@dataclass(frozen=True)
class Welcome:
    """Server accepts the tenant: initial credits + verdict cadence."""

    credits: int
    verdict_every: int

    type = "welcome"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "type": self.type,
            "proto": WIRE_FORMAT,
            "credits": self.credits,
            "verdict_every": self.verdict_every,
        }


@dataclass(frozen=True)
class Credit:
    """Backpressure grant: the client may send ``credits`` more obs."""

    credits: int

    type = "credit"

    def to_payload(self) -> Dict[str, Any]:
        return {"type": self.type, "credits": self.credits}


@dataclass(frozen=True)
class VerdictFrame:
    """Periodic verdicts as of ``quantum`` (session-combined health)."""

    quantum: int
    verdicts: Tuple[UnitVerdict, ...]
    health: str

    type = "verdict"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "type": self.type,
            "quantum": self.quantum,
            "verdicts": [verdict_to_dict(v) for v in self.verdicts],
            "health": self.health,
        }


@dataclass(frozen=True)
class ErrorFrame:
    """Something went wrong; ``fatal`` means the server will hang up."""

    code: str
    message: str
    fatal: bool = False

    type = "error"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "type": self.type,
            "code": self.code,
            "message": self.message,
            "fatal": self.fatal,
        }


@dataclass(frozen=True)
class Goodbye:
    """Final report plus delivery accounting for the tenant."""

    report: DetectionReport
    #: Observations folded into the session.
    received: int
    #: Observations the server shed under overload (tagged ``shed:*``
    #: on the next delivered observation, so they degrade health).
    shed: int = 0

    type = "goodbye"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "type": self.type,
            "received": self.received,
            "shed": self.shed,
            "report": {
                "any_detected": bool(self.report.any_detected),
                "health": self.report.health,
                "verdicts": [
                    verdict_to_dict(v) for v in self.report.verdicts
                ],
            },
        }


Frame = Any  # union of the dataclasses above; kept loose for py3.9


# ---------------------------------------------------------------- parsing


def _parse_trace(payload: Mapping[str, Any], what: str):
    raw = payload.get("trace")
    if raw is None:
        return None
    try:
        return trace_context_from_dict(raw)
    except CodecError as exc:
        raise FrameDecodeError(f"{what}.trace: {exc}") from None


def _parse_hello(payload: Mapping[str, Any]) -> Hello:
    _need(
        payload,
        ("type", "proto", "tenant", "channels"),
        "hello",
        optional=("trace",),
    )
    proto = payload["proto"]
    if proto != WIRE_FORMAT:
        raise FrameDecodeError(
            f"hello: protocol must be {WIRE_FORMAT!r}, got {proto!r}"
        )
    tenant = _text(payload["tenant"], "hello.tenant", max_len=128)
    raw = payload["channels"]
    if not isinstance(raw, list) or not raw:
        raise FrameDecodeError("hello.channels: expected a non-empty list")
    try:
        channels = tuple(channel_spec_from_dict(c) for c in raw)
    except CodecError as exc:
        raise FrameDecodeError(f"hello.channels: {exc}") from None
    names = [c.name for c in channels]
    if len(set(names)) != len(names):
        raise FrameDecodeError("hello.channels: duplicate channel names")
    return Hello(
        tenant=tenant,
        channels=channels,
        trace=_parse_trace(payload, "hello"),
    )


def _parse_obs(payload: Mapping[str, Any]) -> ObsFrame:
    _need(
        payload, ("type", "seq", "observation"), "obs", optional=("trace",)
    )
    seq = _uint(payload["seq"], "obs.seq")
    try:
        observation = observation_from_dict(payload["observation"])
    except CodecError as exc:
        raise FrameDecodeError(f"obs.observation: {exc}") from None
    return ObsFrame(
        seq=seq, observation=observation, trace=_parse_trace(payload, "obs")
    )


def _parse_bye(payload: Mapping[str, Any]) -> Bye:
    _need(payload, ("type",), "bye")
    return Bye()


def _parse_welcome(payload: Mapping[str, Any]) -> Welcome:
    _need(payload, ("type", "proto", "credits", "verdict_every"), "welcome")
    if payload["proto"] != WIRE_FORMAT:
        raise FrameDecodeError(
            f"welcome: protocol must be {WIRE_FORMAT!r}, "
            f"got {payload['proto']!r}"
        )
    credits = _uint(payload["credits"], "welcome.credits")
    every = _uint(payload["verdict_every"], "welcome.verdict_every")
    if credits == 0 or every == 0:
        raise FrameDecodeError("welcome: credits/verdict_every must be > 0")
    return Welcome(credits=credits, verdict_every=every)


def _parse_credit(payload: Mapping[str, Any]) -> Credit:
    _need(payload, ("type", "credits"), "credit")
    credits = _uint(payload["credits"], "credit.credits")
    if credits == 0:
        raise FrameDecodeError("credit.credits: must be > 0")
    return Credit(credits=credits)


def _parse_verdict(payload: Mapping[str, Any]) -> VerdictFrame:
    _need(payload, ("type", "quantum", "verdicts", "health"), "verdict frame")
    quantum = _uint(payload["quantum"], "verdict.quantum")
    raw = payload["verdicts"]
    if not isinstance(raw, list):
        raise FrameDecodeError("verdict.verdicts: expected a list")
    try:
        verdicts = tuple(verdict_from_dict(v) for v in raw)
    except CodecError as exc:
        raise FrameDecodeError(f"verdict.verdicts: {exc}") from None
    health = payload["health"]
    if health not in ("ok", "degraded", "failed"):
        raise FrameDecodeError(f"verdict.health: invalid value {health!r}")
    return VerdictFrame(quantum=quantum, verdicts=verdicts, health=health)


def _parse_error(payload: Mapping[str, Any]) -> ErrorFrame:
    _need(payload, ("type", "code", "message", "fatal"), "error frame")
    code = _text(payload["code"], "error.code", max_len=64)
    message = _text(payload["message"], "error.message")
    fatal = payload["fatal"]
    if not isinstance(fatal, bool):
        raise FrameDecodeError(f"error.fatal: expected a bool, got {fatal!r}")
    return ErrorFrame(code=code, message=message, fatal=fatal)


def _parse_goodbye(payload: Mapping[str, Any]) -> Goodbye:
    _need(payload, ("type", "received", "shed", "report"), "goodbye")
    received = _uint(payload["received"], "goodbye.received")
    shed = _uint(payload["shed"], "goodbye.shed")
    raw = payload["report"]
    if not isinstance(raw, Mapping):
        raise FrameDecodeError("goodbye.report: expected an object")
    _need(raw, ("any_detected", "health", "verdicts"), "goodbye.report")
    raw_verdicts = raw["verdicts"]
    if not isinstance(raw_verdicts, list):
        raise FrameDecodeError("goodbye.report.verdicts: expected a list")
    try:
        verdicts = tuple(verdict_from_dict(v) for v in raw_verdicts)
    except CodecError as exc:
        raise FrameDecodeError(f"goodbye.report.verdicts: {exc}") from None
    report = DetectionReport(verdicts=verdicts)
    if bool(raw["any_detected"]) != report.any_detected:
        raise FrameDecodeError(
            "goodbye.report: any_detected disagrees with the verdicts"
        )
    return Goodbye(report=report, received=received, shed=shed)


_PARSERS = {
    "hello": _parse_hello,
    "obs": _parse_obs,
    "bye": _parse_bye,
    "welcome": _parse_welcome,
    "credit": _parse_credit,
    "verdict": _parse_verdict,
    "error": _parse_error,
    "goodbye": _parse_goodbye,
}


def parse_frame(payload: Any) -> Frame:
    """Validate one decoded JSON payload into a frame dataclass."""
    if not isinstance(payload, Mapping):
        raise FrameDecodeError(
            f"frame: expected a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("type")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise FrameDecodeError(f"frame: unknown type {kind!r}")
    return parser(payload)


# --------------------------------------------------------------- framing


def encode_frame(frame: Frame) -> bytes:
    """Length-prefixed wire bytes for one frame."""
    body = json.dumps(frame.to_payload(), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"{frame.type} frame body is {len(body)} bytes "
            f"(cap {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Frame:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameDecodeError(f"frame body is not valid JSON: {exc}") from None
    return parse_frame(payload)


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameDecodeError` for a malformed *body* (stream
    still aligned — the caller may continue) and plain
    :class:`WireError` for framing damage (bad length, truncation —
    the caller must hang up).
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError(
            f"connection closed mid-header ({len(exc.partial)}/4 bytes)"
        ) from None
    (length,) = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame length {length} outside (0, {MAX_FRAME_BYTES}]"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None
    return decode_payload(body)


async def send_frame(writer: asyncio.StreamWriter, frame: Frame) -> None:
    """Write one frame and drain (honors transport backpressure)."""
    writer.write(encode_frame(frame))
    await writer.drain()
