"""Versioned JSON codecs: exact round-trips, strict rejection.

The wire protocol (docs/SERVING.md) rides on these codecs, so the
round-trip must be *exact* — dtypes included — and the decoders must be
strict: unknown fields, missing fields, wrong types, and foreign format
stamps are all loud :class:`CodecError`\\ s, never silent coercion.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import UnitVerdict
from repro.pipeline import (
    ChannelKind,
    ChannelSpec,
    CodecError,
    ConflictRecords,
    OscillationAnalyzer,
    QuantumObservation,
    WindowCounts,
    channel_spec_from_dict,
    channel_spec_to_dict,
    observation_from_dict,
    observation_to_dict,
    verdict_from_dict,
    verdict_to_dict,
)


def _obs(conflicts=True, faults=()):
    records = None
    if conflicts:
        records = ConflictRecords(
            times=np.array([5, 9, 12], dtype=np.int64),
            replacers=np.array([0, 2, 0], dtype=np.int64),
            victims=np.array([2, 0, 2], dtype=np.int64),
        )
    return QuantumObservation(
        quantum=7,
        t0=7000,
        t1=8000,
        counts={
            "membus": WindowCounts(np.array([0, 4, 17, 0], dtype=np.int64)),
            "divider": WindowCounts(
                np.array([1, 0], dtype=np.int64),
                np.array([2, 3], dtype=np.int64),
            ),
        },
        conflicts=records,
        faults=tuple(faults),
    )


class TestObservationRoundTrip:
    def test_exact_round_trip(self):
        obs = _obs(faults=("drop:membus", "shed:*"))
        back = QuantumObservation.from_json(obs.to_json())
        assert back.quantum == obs.quantum
        assert back.t0 == obs.t0 and back.t1 == obs.t1
        assert back.faults == obs.faults
        assert sorted(back.counts) == sorted(obs.counts)
        for name in obs.counts:
            # Runs travel expanded: one entry per window.
            assert back.counts[name].lengths is None
            assert back.counts[name].values.dtype == np.int64
            np.testing.assert_array_equal(
                back.counts[name].values, obs.counts[name].expand()
            )
        for field in ("times", "replacers", "victims"):
            col = getattr(back.conflicts, field)
            assert col.dtype == np.int64
            np.testing.assert_array_equal(col, getattr(obs.conflicts, field))

    def test_no_conflicts_round_trip(self):
        obs = _obs(conflicts=False)
        back = QuantumObservation.from_json(obs.to_json())
        assert back.conflicts is None

    def test_json_is_plain_scalars(self):
        payload = json.loads(_obs().to_json())
        assert payload["format"] == "repro.pipeline.observation/v1"
        assert all(isinstance(v, int) for v in payload["counts"]["membus"])

    @settings(max_examples=30, deadline=None)
    @given(
        quantum=st.integers(0, 2**40),
        counts=st.lists(st.integers(0, 2**31), max_size=16),
        faults=st.lists(
            st.sampled_from(["drop:*", "stall:membus", "shed:*"]), max_size=3
        ),
    )
    def test_property_round_trip(self, quantum, counts, faults):
        obs = QuantumObservation(
            quantum=quantum,
            t0=quantum * 1000,
            t1=(quantum + 1) * 1000,
            counts={"membus": WindowCounts(np.array(counts, dtype=np.int64))},
            faults=tuple(faults),
        )
        back = observation_from_dict(json.loads(obs.to_json()))
        np.testing.assert_array_equal(back.counts["membus"].values, counts)
        assert back.faults == tuple(faults)


class TestObservationStrictness:
    def test_unknown_field_rejected(self):
        payload = observation_to_dict(_obs())
        payload["extra"] = 1
        with pytest.raises(CodecError, match="unknown field"):
            observation_from_dict(payload)

    def test_missing_required_field_rejected(self):
        payload = observation_to_dict(_obs())
        del payload["quantum"]
        with pytest.raises(CodecError, match="missing required"):
            observation_from_dict(payload)

    def test_wrong_format_rejected(self):
        payload = observation_to_dict(_obs())
        payload["format"] = "repro.pipeline.observation/v2"
        with pytest.raises(CodecError, match="format"):
            observation_from_dict(payload)

    def test_bool_masquerading_as_int_rejected(self):
        payload = observation_to_dict(_obs())
        payload["quantum"] = True
        with pytest.raises(CodecError, match="integer"):
            observation_from_dict(payload)

    def test_float_counts_rejected(self):
        payload = observation_to_dict(_obs())
        payload["counts"]["membus"] = [0.5, 1]
        with pytest.raises(CodecError, match="non-integer"):
            observation_from_dict(payload)

    def test_ragged_conflicts_rejected(self):
        payload = observation_to_dict(_obs())
        payload["conflicts"]["times"] = payload["conflicts"]["times"][:-1]
        with pytest.raises(CodecError, match="ragged"):
            observation_from_dict(payload)

    def test_unknown_conflict_field_rejected(self):
        payload = observation_to_dict(_obs())
        payload["conflicts"]["colour"] = []
        with pytest.raises(CodecError, match="unknown field"):
            observation_from_dict(payload)

    def test_garbage_json_rejected(self):
        with pytest.raises(CodecError, match="not valid JSON"):
            QuantumObservation.from_json("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(CodecError, match="JSON object"):
            observation_from_dict([1, 2, 3])


def _pingpong(quantum, a, b, n=512, phase=32, span=1_000_000):
    """One quantum of a covert cache train between contexts ``a`` and
    ``b``: ``phase`` conflicts of ``a`` replacing ``b``, then ``phase``
    of ``b`` replacing ``a``, alternating."""
    t0 = quantum * span
    forward = (np.arange(n) // phase) % 2 == 0
    return QuantumObservation(
        quantum=quantum,
        t0=t0,
        t1=t0 + span,
        counts={},
        conflicts=ConflictRecords(
            times=t0 + np.arange(n, dtype=np.int64) * (span // n),
            replacers=np.where(forward, a, b).astype(np.int64),
            victims=np.where(forward, b, a).astype(np.int64),
        ),
    )


class TestConflictContextIds:
    """A context pair packs into ``lo << 3 | hi`` for the oscillation
    analysis, so a decoded id wider than 3 bits would alias another pair
    (0 and 9 read as 1 and 1) and silently hide the channel."""

    def test_three_bit_pair_round_trips_and_detects(self):
        analyzer = OscillationAnalyzer()
        for q in range(4):
            payload = observation_to_dict(_pingpong(q, 0, 2))
            analyzer.push(observation_from_dict(json.loads(json.dumps(payload))))
        verdict = analyzer.verdict()
        assert verdict.detected
        assert verdict.oscillating_windows == 4

    def test_wide_context_ids_rejected(self):
        for a, b in ((0, 9), (2, 8)):
            payload = observation_to_dict(_pingpong(0, a, b))
            with pytest.raises(CodecError, match="fit in 3 bits"):
                observation_from_dict(payload)

    def test_negative_context_id_rejected(self):
        payload = observation_to_dict(_obs())
        payload["conflicts"]["victims"][1] = -1
        with pytest.raises(CodecError, match="victims"):
            observation_from_dict(payload)


class TestVerdictRoundTrip:
    def _verdicts(self):
        return [
            UnitVerdict(
                unit="membus",
                method="burst",
                detected=True,
                quanta_analyzed=40,
                max_likelihood_ratio=0.93,
                recurrent=True,
                burst_window_fraction=0.5,
                notes=("7 flagged input fault(s) (shed x7)",),
                health="degraded",
            ),
            UnitVerdict(
                unit="cache",
                method="oscillation",
                detected=False,
                quanta_analyzed=12,
                oscillating_windows=0,
                max_peak=0.12,
                dominant_period=None,
            ),
        ]

    def test_exact_round_trip(self):
        for verdict in self._verdicts():
            back = UnitVerdict.from_json(verdict.to_json())
            assert back == verdict

    def test_evidence_passes_through(self):
        verdict = UnitVerdict(
            unit="membus",
            method="burst",
            detected=False,
            quanta_analyzed=1,
            evidence={"format": "repro.obs.evidence/v1", "unit": "membus"},
        )
        back = verdict_from_dict(verdict_to_dict(verdict))
        assert back.evidence == verdict.evidence

    def test_to_dict_unchanged_shape(self):
        # The codec adds only the format stamp on top of to_dict().
        verdict = self._verdicts()[0]
        payload = verdict_to_dict(verdict)
        assert payload.pop("format") == "repro.pipeline.verdict/v1"
        assert payload == verdict.to_dict()


class TestVerdictStrictness:
    def _payload(self):
        return verdict_to_dict(
            UnitVerdict(
                unit="membus", method="burst", detected=False,
                quanta_analyzed=3,
            )
        )

    def test_unknown_field_rejected(self):
        payload = self._payload()
        payload["confidence"] = 0.9
        with pytest.raises(CodecError, match="unknown field"):
            verdict_from_dict(payload)

    def test_missing_required_rejected(self):
        payload = self._payload()
        del payload["detected"]
        with pytest.raises(CodecError, match="missing required"):
            verdict_from_dict(payload)

    def test_bad_health_rejected(self):
        payload = self._payload()
        payload["health"] = "on-fire"
        with pytest.raises(CodecError, match="health"):
            verdict_from_dict(payload)

    def test_non_bool_detected_rejected(self):
        payload = self._payload()
        payload["detected"] = 1
        with pytest.raises(CodecError, match="bool"):
            verdict_from_dict(payload)

    def test_non_string_notes_rejected(self):
        payload = self._payload()
        payload["notes"] = [3]
        with pytest.raises(CodecError, match="notes"):
            verdict_from_dict(payload)


class TestChannelSpecCodec:
    def test_round_trip(self):
        for spec in (
            ChannelSpec(name="membus", kind=ChannelKind.BURST, dt=1000),
            ChannelSpec(name="cache", kind=ChannelKind.CONFLICT),
        ):
            assert channel_spec_from_dict(channel_spec_to_dict(spec)) == spec

    def test_burst_requires_dt(self):
        payload = channel_spec_to_dict(
            ChannelSpec(name="membus", kind=ChannelKind.BURST, dt=1000)
        )
        payload["dt"] = None
        with pytest.raises(CodecError, match="require"):
            channel_spec_from_dict(payload)

    def test_bad_kind_rejected(self):
        payload = channel_spec_to_dict(
            ChannelSpec(name="cache", kind=ChannelKind.CONFLICT)
        )
        payload["kind"] = "sparkle"
        with pytest.raises(CodecError, match="kind"):
            channel_spec_from_dict(payload)

    def test_nonpositive_dt_rejected(self):
        payload = channel_spec_to_dict(
            ChannelSpec(name="membus", kind=ChannelKind.BURST, dt=1000)
        )
        payload["dt"] = 0
        with pytest.raises(CodecError, match="positive"):
            channel_spec_from_dict(payload)
