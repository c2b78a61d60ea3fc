"""Golden fixture: per-quantum burst verdict trajectories.

``perf/golden.json`` pins the final verdict of each benchmark session
only. The trajectories here pin every intermediate verdict the burst
analyzer produces, which is what time-to-detection and the served
verdict frames are made of:

- an eager 600-quantum membus session (past the 512-window recurrence
  horizon): per quantum ``detected``, ``recurrent``,
  ``burst_window_fraction`` and ``max_likelihood_ratio``, plus the
  first-detection quantum;
- the serve covert and benign streams folded through
  :func:`build_session_from_specs`, 1,200 observations each, with a
  verdict every 8 as the service evaluates them, and the recurrence
  cluster snapshot of each of those verdicts (labels, burst clusters,
  burst windows, aggregate histogram) from a session capturing evidence;
- the serialized evidence bundle of an eager membus session with
  ``capture_evidence=True``, plus its cluster snapshot after every
  quantum;
- the divider unit, whose per-Δt counts are half a million windows a
  quantum: an eager covert divider session with background noise, the
  divider unit of the benign bzip2+h264ref pair under bus and divider
  audit, and
  the covert stream through a :class:`~repro.faults.FaultInjectingSource`
  that drops, stalls and reorders divider windows. Each pins the
  per-quantum verdicts (with health under faults), every retained
  per-quantum histogram and the monitor slot's cumulative tallies; the
  fault record also pins each injector's tallies;
- the cache unit's oscillation analyzer: an eager noisy cache covert
  session at 256 sets (the cache-noisy benchmark workload's session
  shape), and the same channel audited in quarter-quantum windows. Each
  pins the per-quantum verdicts, the first-detection quantum and, for
  every analyzed window, its ``significant`` flag, ``max_peak``,
  ``dominant_period``, peak lags and the SHA-256 of its correlogram's
  float64 bytes.

A long trajectory is stored as the SHA-256 of its canonical JSON, its
length, its first and last few entries and one digest per chunk, so a
failure shows where the trajectories diverge.

To re-record after an intended change of behaviour::

    PYTHONPATH=src python tests/pipeline/test_golden_verdicts.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.channels.base import ChannelConfig
from repro.channels.membus import MemoryBusCovertChannel
from repro.core.detector import AuditUnit, CCHunter
from repro.errors import DetectionError
from repro.faults.spec import injectors_from_string
from repro.pipeline.analyzers import RECENT_ANALYSES
from repro.pipeline.session import build_session_from_specs
from repro.pipeline.sinks import CollectingSink
from repro.serve.service import ServeConfig
from repro.serve.traffic import (
    CHANNELS,
    benign_observations,
    covert_observations,
)
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from repro.workloads.base import workload_process
from repro.workloads.spec import bzip2, h264ref

GOLDEN = Path(__file__).with_name("golden_verdicts.json")

#: Quanta of the eager membus sessions: one bit per quantum at 10 bps.
MEMBUS_QUANTA = 600
#: Quanta of the divider sessions: one bit per quantum at 10 bps.
DIVIDER_QUANTA = 48
#: The audited divider's channel name (core 0).
DIVIDER = "divider(core 0)"
#: Divider faults: thin, black out and shuffle Δt windows (in blocks of
#: 4,096: the reorder injector shuffles block by block in Python).
DIVIDER_FAULTS = ",".join(
    f"{clause}@{DIVIDER}"
    for clause in ("drop:0.2", "stall:0.0005:64", "reorder:4096")
)
#: Quanta of the eager noisy cache session (one bit per quantum at
#: 10 bps) and the cache sets its channel spans.
CACHE_QUANTA = 32
CACHE_SETS = 256
#: The fractional cache session: four windows a quantum, over few enough
#: quanta that the analyzer keeps every window's analysis.
CACHE_WINDOW_FRACTION = 0.25
CACHE_FRACTIONAL_QUANTA = 12
#: Observations per served stream.
SERVE_OBSERVATIONS = 1200
#: Entries kept verbatim at each end of a stored trajectory.
EDGE = 4
#: Entries per chunk digest.
CHUNK = 50


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(value) -> str:
    return hashlib.sha256(_canonical(value).encode()).hexdigest()


def _digest(entries):
    """A trajectory as its hash, length, edges and per-chunk hashes."""
    entries = json.loads(json.dumps(entries))
    return {
        "n": len(entries),
        "sha256": _sha256(entries),
        "head": entries[:EDGE],
        "tail": entries[-EDGE:],
        "chunks": [
            _sha256(entries[i:i + CHUNK])
            for i in range(0, len(entries), CHUNK)
        ],
    }


def _burst_entry(quantum, verdict):
    return [
        int(quantum),
        bool(verdict.detected),
        bool(verdict.recurrent),
        float(verdict.burst_window_fraction),
        float(verdict.max_likelihood_ratio),
    ]


def _message(seed, n_bits=MEMBUS_QUANTA):
    """``n_bits`` bits, 40% of them 1s, as the membus-long benchmark
    sends."""
    bits = np.zeros(n_bits, dtype=int)
    rng = np.random.default_rng(seed)
    bits[rng.choice(n_bits, n_bits * 2 // 5, replace=False)] = 1
    return Message.from_bits(bits)


def membus_trajectory(seed=7):
    sink = CollectingSink()
    run = run_channel_session(
        "membus", _message(seed), bandwidth_bps=10.0, seed=seed,
        noise=False, sinks=[sink], track_detection_latency=True,
    )
    assert run.quanta == MEMBUS_QUANTA
    return {
        "first_detection": run.hunter.first_detection_quantum(
            AuditUnit.MEMORY_BUS
        ),
        "trajectory": _digest([
            _burst_entry(q, report.verdict_for("membus"))
            for q, report in sink.reports
        ]),
    }


def serve_trajectory(profile, seed=1):
    stream = {"covert": covert_observations, "benign": benign_observations}
    served = build_session_from_specs(CHANNELS)
    captured = build_session_from_specs(CHANNELS, capture_evidence=True)
    bundle = captured.evidence()["membus"]
    every = ServeConfig().verdict_every
    entries, clusters = [], []
    for received, obs in enumerate(
        stream[profile](SERVE_OBSERVATIONS, seed=seed), start=1
    ):
        served.push_quantum(obs)
        captured.push_quantum(obs)
        if received % every == 0:
            verdict = served.current_verdicts().verdict_for("membus")
            entries.append(_burst_entry(obs.quantum, verdict))
            captured.current_verdicts()  # sets the cluster snapshot
            clusters.append(_sha256(bundle.cluster_snapshot))
    return {"trajectory": _digest(entries), "clusters": _digest(clusters)}


class _SnapshotSink:
    """Digests the evidence cluster snapshot after every quantum."""

    def __init__(self):
        self.bundle = None
        self.digests = []

    def on_quantum(self, quantum, report):
        self.digests.append(_sha256(self.bundle.cluster_snapshot))

    def on_close(self, report):
        pass


def membus_evidence(seed=11):
    """An eager evidence-capturing membus session, as
    :func:`run_channel_session` builds it without noise."""
    machine = Machine(seed=seed)
    sink = _SnapshotSink()
    hunter = CCHunter(machine, sinks=[sink], capture_evidence=True)
    hunter.audit(AuditUnit.MEMORY_BUS)
    sink.bundle = hunter.session.evidence()["membus"]
    channel = MemoryBusCovertChannel(
        machine, ChannelConfig(message=_message(seed), bandwidth_bps=10.0)
    )
    channel.deploy()
    assert channel.quanta_needed() == MEMBUS_QUANTA
    machine.run_quanta(MEMBUS_QUANTA)
    bundle = sink.bundle.to_dict()
    snapshot = dict(bundle["cluster_snapshot"])
    snapshot["labels"] = _digest(snapshot["labels"])
    snapshot["burst_window_indices"] = _digest(
        snapshot["burst_window_indices"]
    )
    return {
        "bundle_sha256": _sha256(bundle),
        "cluster_snapshot": snapshot,
        "snapshots": _digest(sink.digests),
    }


def _divider_record(hunter, sink, slot_index):
    """Per-quantum divider verdicts, retained histograms, slot tallies."""
    slot = hunter.auditor.slot(slot_index)
    return {
        "first_detection": hunter.first_detection_quantum(
            AuditUnit.DIVIDER, core=0
        ),
        "trajectory": _digest([
            _burst_entry(q, report.verdict_for(DIVIDER))
            + [report.verdict_for(DIVIDER).health]
            for q, report in sink.reports
        ]),
        "histograms": _digest([
            _sha256(h.tolist())
            for h in hunter.burst_histograms(AuditUnit.DIVIDER, core=0)
        ]),
        "slot": [
            slot.events_seen, slot.clamp_events, slot.entry_saturations
        ],
    }


def divider_trajectory(seed=5, faults=""):
    """An eager covert divider session with background noise, optionally
    through fault injectors on the divider channel."""
    sink = CollectingSink()
    injectors = injectors_from_string(faults, seed=seed) if faults else []
    run = run_channel_session(
        "divider", _message(seed, DIVIDER_QUANTA), bandwidth_bps=10.0,
        seed=seed, sinks=[sink], track_detection_latency=True,
        injectors=injectors,
    )
    assert run.quanta == DIVIDER_QUANTA
    record = _divider_record(run.hunter, sink, 0)
    if injectors:
        record["injectors"] = [
            [i.kind, i.quanta_touched, i.events_dropped, i.events_added,
             i.values_corrupted]
            for i in injectors
        ]
    return record


def benign_divider_trajectory(seed=9):
    """The divider unit of Figure 14's bzip2+h264ref pair, audited with
    the memory bus as the false-alarm screen audits it, but eagerly."""
    machine = Machine(seed=seed)
    sink = CollectingSink()
    hunter = CCHunter(machine, sinks=[sink], track_detection_latency=True)
    hunter.audit(AuditUnit.MEMORY_BUS)
    hunter.audit(AuditUnit.DIVIDER, core=0)
    for ctx, profile in enumerate((bzip2, h264ref)):
        machine.spawn(
            workload_process(
                profile, machine, DIVIDER_QUANTA, seed=ctx + 1, instance=ctx
            ),
            ctx=ctx,
        )
    machine.run_quanta(DIVIDER_QUANTA)
    return _divider_record(hunter, sink, 1)


def _oscillation_entry(quantum, verdict):
    return [
        int(quantum),
        bool(verdict.detected),
        int(verdict.quanta_analyzed),
        int(verdict.oscillating_windows),
        float(verdict.max_peak),
        verdict.dominant_period,
    ]


def _acf_window(analysis):
    acf = np.ascontiguousarray(analysis.acf, dtype=np.float64)
    return [
        bool(analysis.significant),
        float(analysis.max_peak),
        float(analysis.dominant_period),
        [int(lag) for lag in analysis.peak_lags],
        hashlib.sha256(acf.tobytes()).hexdigest(),
    ]


def cache_trajectory(seed=3, quanta=CACHE_QUANTA, window_fraction=1.0):
    """An eager noisy cache covert session at ``CACHE_SETS`` sets: its
    per-quantum verdicts and every analyzed window's correlogram."""
    sink = CollectingSink()
    run = run_channel_session(
        "cache", Message.random(quanta, rng=np.random.default_rng(seed)),
        bandwidth_bps=10.0, seed=seed, noise=True,
        window_fraction=window_fraction, sinks=[sink],
        track_detection_latency=True, n_sets_total=CACHE_SETS,
    )
    assert run.quanta == quanta
    windows = run.hunter.cache_analyses()
    # Every window closed is below the analyzer's recent-analysis cap, so
    # none of the analyzed windows has been dropped.
    closed = sink.reports[-1][1].verdict_for("cache").quanta_analyzed
    assert len(windows) <= closed < RECENT_ANALYSES
    return {
        "first_detection": run.hunter.first_detection_quantum(
            AuditUnit.CACHE
        ),
        "trajectory": _digest([
            _oscillation_entry(q, report.verdict_for("cache"))
            for q, report in sink.reports
        ]),
        "windows": _digest([_acf_window(a) for a in windows]),
    }


RECORDS = {
    "cache-covert": cache_trajectory,
    "cache-fractional": lambda: cache_trajectory(
        quanta=CACHE_FRACTIONAL_QUANTA,
        window_fraction=CACHE_WINDOW_FRACTION,
    ),
    "membus-eager": membus_trajectory,
    "divider-covert": divider_trajectory,
    "divider-benign": benign_divider_trajectory,
    "divider-faults": lambda: divider_trajectory(faults=DIVIDER_FAULTS),
    "serve-covert": lambda: serve_trajectory("covert"),
    "serve-benign": lambda: serve_trajectory("benign"),
    "membus-evidence": membus_evidence,
}


def _as_json(record):
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_record(golden):
    assert sorted(golden) == sorted(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_golden(name, golden):
    assert _as_json(RECORDS[name]()) == golden[name]


def test_membus_session_without_tracking_has_no_first_detection():
    """The membus-eager session run lazily evaluated no verdict per
    quantum, so it has no record of when it first fired, and raises. Its
    512 retained windows cannot stand in for that record past the
    horizon: replaying them names a later quantum than the eager one."""
    seed = 7
    run = run_channel_session(
        "membus", _message(seed), bandwidth_bps=10.0, seed=seed,
        noise=False,
    )
    assert run.quanta == MEMBUS_QUANTA
    assert run.hunter.report().verdict_for("membus").detected
    with pytest.raises(DetectionError, match="track_detection_latency"):
        run.hunter.first_detection_quantum(AuditUnit.MEMORY_BUS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    records = {name: _as_json(RECORDS[name]()) for name in sorted(RECORDS)}
    GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
