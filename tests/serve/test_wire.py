"""Wire protocol: framing, round-trips, strict validation, error split."""

import asyncio
import struct

import numpy as np
import pytest

from repro.core.report import DetectionReport, UnitVerdict
from repro.errors import FrameDecodeError, WireError
from repro.pipeline import (
    ChannelKind,
    ChannelSpec,
    QuantumObservation,
    WindowCounts,
)
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    Bye,
    Credit,
    ErrorFrame,
    Goodbye,
    Hello,
    ObsFrame,
    VerdictFrame,
    Welcome,
    decode_payload,
    encode_frame,
    parse_frame,
    read_frame,
)

CHANNELS = (
    ChannelSpec(name="membus", kind=ChannelKind.BURST, dt=1000),
    ChannelSpec(name="cache", kind=ChannelKind.CONFLICT),
)


def _obs(quantum=3):
    return QuantumObservation(
        quantum=quantum,
        t0=quantum * 100,
        t1=(quantum + 1) * 100,
        counts={"membus": WindowCounts(np.array([0, 7, 0], dtype=np.int64))},
    )


def _verdict(detected=False):
    return UnitVerdict(
        unit="membus",
        method="burst",
        detected=detected,
        quanta_analyzed=9,
        max_likelihood_ratio=0.4,
    )


ALL_FRAMES = [
    Hello(tenant="acme", channels=CHANNELS),
    ObsFrame(seq=12, observation=_obs()),
    Bye(),
    Welcome(credits=32, verdict_every=8),
    Credit(credits=4),
    VerdictFrame(quantum=7, verdicts=(_verdict(),), health="degraded"),
    ErrorFrame(code="decode", message="bad frame", fatal=False),
    Goodbye(
        report=DetectionReport(verdicts=(_verdict(True),)),
        received=40,
        shed=3,
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "frame", ALL_FRAMES, ids=[f.type for f in ALL_FRAMES]
    )
    def test_encode_decode_identity(self, frame):
        data = encode_frame(frame)
        (length,) = struct.unpack(">I", data[:4])
        assert length == len(data) - 4
        back = decode_payload(data[4:])
        if frame.type == "obs":
            assert back.seq == frame.seq
            np.testing.assert_array_equal(
                back.observation.counts["membus"].expand(),
                frame.observation.counts["membus"].expand(),
            )
        elif frame.type == "goodbye":
            assert back.report == frame.report
            assert (back.received, back.shed) == (
                frame.received, frame.shed,
            )
        else:
            assert back == frame


class TestStrictness:
    def test_unknown_frame_type(self):
        with pytest.raises(FrameDecodeError, match="unknown type"):
            parse_frame({"type": "sparkle"})

    def test_non_object_frame(self):
        with pytest.raises(FrameDecodeError, match="JSON object"):
            parse_frame([1, 2])

    def test_unknown_field(self):
        payload = Bye().to_payload()
        payload["extra"] = 1
        with pytest.raises(FrameDecodeError, match="unknown field"):
            parse_frame(payload)

    def test_missing_field(self):
        payload = Welcome(credits=8, verdict_every=4).to_payload()
        del payload["credits"]
        with pytest.raises(FrameDecodeError, match="missing required"):
            parse_frame(payload)

    def test_wrong_proto(self):
        payload = Hello(tenant="a", channels=CHANNELS).to_payload()
        payload["proto"] = "repro.serve.wire/v2"
        with pytest.raises(FrameDecodeError, match="protocol"):
            parse_frame(payload)

    def test_empty_channels(self):
        payload = Hello(tenant="a", channels=CHANNELS).to_payload()
        payload["channels"] = []
        with pytest.raises(FrameDecodeError, match="non-empty"):
            parse_frame(payload)

    def test_duplicate_channels(self):
        dup = (CHANNELS[0], CHANNELS[0])
        payload = Hello(tenant="a", channels=dup).to_payload()
        with pytest.raises(FrameDecodeError, match="duplicate"):
            parse_frame(payload)

    def test_negative_seq(self):
        payload = ObsFrame(seq=0, observation=_obs()).to_payload()
        payload["seq"] = -1
        with pytest.raises(FrameDecodeError, match="non-negative"):
            parse_frame(payload)

    def test_bad_nested_observation(self):
        payload = ObsFrame(seq=0, observation=_obs()).to_payload()
        payload["observation"]["extra"] = True
        with pytest.raises(FrameDecodeError, match="obs.observation"):
            parse_frame(payload)

    def test_goodbye_detected_mismatch(self):
        frame = Goodbye(
            report=DetectionReport(verdicts=(_verdict(True),)),
            received=1,
        )
        payload = frame.to_payload()
        payload["report"]["any_detected"] = False
        with pytest.raises(FrameDecodeError, match="disagrees"):
            parse_frame(payload)

    def test_credit_zero_rejected(self):
        payload = Credit(credits=1).to_payload()
        payload["credits"] = 0
        with pytest.raises(FrameDecodeError, match="> 0"):
            parse_frame(payload)

    def test_oversized_encode_rejected(self):
        big = ErrorFrame(code="x", message="y" * 64, fatal=False)
        with pytest.raises(WireError, match="cap"):
            encode_frame(big, max_frame_bytes=32)


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestStreamFraming:
    def run(self, coro):
        return asyncio.run(coro)

    def test_stream_of_frames_then_clean_eof(self):
        data = encode_frame(Bye()) + encode_frame(Credit(credits=2))

        async def scenario():
            reader = _reader_with(data)
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = self.run(scenario())
        assert isinstance(first, Bye)
        assert second == Credit(credits=2)
        assert third is None

    def test_truncated_header_is_fatal(self):
        async def scenario():
            return await read_frame(_reader_with(b"\x00\x00"))

        with pytest.raises(WireError, match="mid-header"):
            self.run(scenario())

    def test_truncated_body_is_fatal(self):
        data = encode_frame(Bye())[:-3]

        async def scenario():
            return await read_frame(_reader_with(data))

        with pytest.raises(WireError, match="mid-frame"):
            self.run(scenario())

    def test_absurd_length_prefix_is_fatal(self):
        data = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"

        async def scenario():
            return await read_frame(_reader_with(data))

        with pytest.raises(WireError, match="outside"):
            self.run(scenario())

    def test_garbage_body_is_recoverable(self):
        """A garbage body raises FrameDecodeError but leaves the stream
        aligned: the next frame still parses."""
        garbage = b"\xff{not json"
        data = (
            struct.pack(">I", len(garbage))
            + garbage
            + encode_frame(Credit(credits=3))
        )

        async def scenario():
            reader = _reader_with(data)
            try:
                await read_frame(reader)
            except FrameDecodeError:
                recovered = await read_frame(reader)
                return recovered
            raise AssertionError("garbage body did not raise")

        assert self.run(scenario()) == Credit(credits=3)

    def test_zero_length_frame_is_fatal(self):
        data = struct.pack(">I", 0)

        async def scenario():
            return await read_frame(_reader_with(data))

        with pytest.raises(WireError, match="outside"):
            self.run(scenario())


class TestTraceContextField:
    """The optional ``trace`` field on hello/obs frames (PR 10).

    Older v1 peers never send it; newer peers may. Both directions
    must round-trip, absence must stay absent on the wire, and the
    strict validator must still reject junk inside the sub-object.
    """

    def test_absent_by_default(self):
        assert "trace" not in Hello(tenant="a", channels=CHANNELS).to_payload()
        assert "trace" not in ObsFrame(seq=0, observation=_obs()).to_payload()

    def test_hello_round_trip(self):
        from repro.obs.tracing import TraceContext

        frame = Hello(
            tenant="a", channels=CHANNELS,
            trace=TraceContext("deadbeefdeadbeef", "cafe0123"),
        )
        back = decode_payload(encode_frame(frame)[4:])
        assert back.trace == frame.trace

    def test_obs_round_trip_without_parent(self):
        from repro.obs.tracing import TraceContext

        frame = ObsFrame(
            seq=3, observation=_obs(), trace=TraceContext("deadbeefdeadbeef"),
        )
        payload = frame.to_payload()
        assert payload["trace"] == {"trace_id": "deadbeefdeadbeef"}
        back = parse_frame(payload)
        assert back.trace == frame.trace

    def test_trace_rejects_unknown_keys(self):
        payload = Hello(tenant="a", channels=CHANNELS).to_payload()
        payload["trace"] = {"trace_id": "abc", "span_kind": "client"}
        with pytest.raises(FrameDecodeError, match="unknown field"):
            parse_frame(payload)

    def test_trace_rejects_empty_id(self):
        payload = ObsFrame(seq=0, observation=_obs()).to_payload()
        payload["trace"] = {"trace_id": ""}
        with pytest.raises(FrameDecodeError):
            parse_frame(payload)

    def test_trace_rejects_non_mapping(self):
        payload = ObsFrame(seq=0, observation=_obs()).to_payload()
        payload["trace"] = "deadbeef"
        with pytest.raises(FrameDecodeError):
            parse_frame(payload)
