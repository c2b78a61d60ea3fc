"""Golden fixture: mitigated sessions reproduce their recorded results.

The scalar cache reference and the batch kernels share one victim rule
under way partitioning, and the mitigations reach the resources through
declared hooks, so parity alone cannot catch a change to what a
mitigated session produces. ``golden_sessions.json`` pins it: for each
session below, the detection report, the channel's bit error rate, the
L2 counters and jitter-pool index, SHA-256 hashes of the labeled
conflict train and of the bus lock times, and each mitigation's own
counter. Every session is rerun and compared exactly.

To re-record after an intended change of behaviour::

    PYTHONPATH=src python tests/mitigation/test_golden_sessions.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.channels.membus import MemoryBusCovertChannel
from repro.core.detector import AuditUnit, CCHunter
from repro.mitigation import (
    ClockFuzzer,
    apply_bus_lock_throttle,
    partition_cache_ways,
)
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from repro.workloads.noise import background_noise_processes

GOLDEN = Path(__file__).with_name("golden_sessions.json")

MSG = Message.from_bits([1, 0, 1, 1, 0, 0, 1, 0])
#: Three OS quanta at 100 bps: enough for the burst detector's recurrence.
BUS_MSG = Message.random(30, 5)

#: name -> run_session keywords. ``fuzz`` is ClockFuzzer's ``correlated``
#: flag; ``partition`` says when the suspects (0, 2) are way-partitioned:
#: at deployment, or halfway through the transmission, over blocks the
#: unpartitioned first half filled (which exercises the over-budget
#: eviction path).
SESSIONS = {
    "bus-throttle": dict(kind="bus", throttle={}),
    "bus-throttle-ctx7": dict(kind="bus", throttle={"contexts": {7}}),
    "bus-fuzz": dict(kind="bus", fuzz=False),
    "bus-fuzz-correlated": dict(kind="bus", fuzz=True),
    "cache-partition-midway": dict(kind="cache", partition="midway"),
    "cache-fuzz": dict(kind="cache", fuzz=False),
    "cache-fuzz-correlated": dict(kind="cache", fuzz=True),
    "cache-partition-fuzz": dict(kind="cache", partition="start", fuzz=False),
    "cache-subset-evasion-fuzz-correlated": dict(
        kind="cache", fuzz=True, subset=0.5
    ),
}


def _sha256(*columns) -> str:
    digest = hashlib.sha256()
    for column in columns:
        column = np.asarray(column)
        dtype = np.float64 if column.dtype.kind == "f" else np.int64
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


def run_session(kind, throttle=None, fuzz=None, partition=None, subset=1.0):
    """Run one mitigated session with noise and summarize what it produced."""
    machine = Machine(seed=5)
    hunter = CCHunter(machine)
    if kind == "bus":
        hunter.audit(AuditUnit.MEMORY_BUS)
        channel = MemoryBusCovertChannel(
            machine, ChannelConfig(message=BUS_MSG, bandwidth_bps=100.0)
        )
    else:
        hunter.audit(AuditUnit.CACHE)
        channel = CacheCovertChannel(
            machine,
            ChannelConfig(message=MSG, bandwidth_bps=500.0),
            n_sets_total=32,
            evasion_subset_frac=subset,
        )
    channel.deploy(trojan_ctx=0, spy_ctx=2)
    quanta = channel.quanta_needed()
    background_noise_processes(
        machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=5
    )
    locks = None
    if throttle is not None:
        locks = apply_bus_lock_throttle(machine, min_period=100_000, **throttle)
    if fuzz is not None:
        ClockFuzzer(machine, fuzz_cycles=3000, correlated=fuzz)
    if partition == "midway":
        machine.run_until(channel.transmission_end // 2)
    ways = None if partition is None else partition_cache_ways(machine, (0, 2))
    machine.run_quanta(quanta)
    if kind == "bus":
        observed = np.concatenate(channel.spy_samples)
    else:
        observed = np.asarray(channel.g1_means + channel.g0_means)
    l2 = machine.l2
    # Everything the session recorded: a throttle stretches bursts past
    # the last quantum.
    horizon = np.iinfo(np.int64).max
    return {
        "report": hunter.report().to_dict(),
        "ber": channel.bit_error_rate(),
        "spy_latencies_sha256": _sha256(observed),
        "l2": [l2.hits, l2.misses, l2.conflict_misses],
        "jitter_idx": l2._jitter_idx,
        "conflict_train_sha256": _sha256(
            *machine.cache_miss_tap.window_reader().read(0, horizon)
        ),
        "bus_lock_times_sha256": _sha256(
            machine.bus_lock_tap.window_reader().read(0, horizon)
        ),
        "locks_delayed": None if locks is None else locks.locks_delayed,
        "cross_group_evictions_prevented": (
            None if ways is None else ways.cross_group_evictions_prevented
        ),
    }


def _as_json(record):
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_session(golden):
    assert sorted(golden) == sorted(SESSIONS)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_matches_golden(name, golden):
    assert _as_json(run_session(**SESSIONS[name])) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    records = {
        name: _as_json(run_session(**SESSIONS[name]))
        for name in sorted(SESSIONS)
    }
    GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} sessions to {GOLDEN}")
