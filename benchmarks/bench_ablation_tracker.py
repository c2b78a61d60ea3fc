"""Ablation: practical generation/bloom tracker vs the ideal LRU oracle.

DESIGN.md calls out the conflict-miss tracker approximation as a core
design choice (Figure 9). This ablation runs the same cache covert
session with both trackers and compares the channel's visibility: the
practical tracker must preserve the oscillation signal the ideal one
exposes.
"""

from conftest import record

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.core.detector import AuditUnit, CCHunter
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from repro.workloads.noise import background_noise_processes


def run_with_tracker(tracker_factory, seed=1):
    machine = Machine(seed=seed)
    machine.tracker = tracker_factory(machine.config.l2.n_blocks)
    machine.l2.tracker = machine.tracker
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.CACHE)
    channel = CacheCovertChannel(
        machine,
        ChannelConfig(message=Message.random(16, seed), bandwidth_bps=200.0),
        n_sets_total=256,
    )
    channel.deploy()
    quanta = channel.quanta_needed()
    background_noise_processes(
        machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=seed
    )
    machine.run_quanta(quanta)
    verdict = hunter.report().verdicts[0]
    return verdict, machine.l2.conflict_misses


def test_ablation_tracker(benchmark):
    def run_both():
        ideal = run_with_tracker(IdealLRUConflictTracker)
        practical = run_with_tracker(GenerationConflictTracker)
        return ideal, practical

    (ideal_v, ideal_events), (practical_v, practical_events) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )
    assert ideal_v.detected
    assert practical_v.detected
    # The approximation must not cost more than a modest peak reduction.
    assert practical_v.max_peak > ideal_v.max_peak - 0.2
    record(
        "Ablation: conflict-miss tracker (ideal LRU stack vs paper design)",
        f"ideal oracle : detected={ideal_v.detected}, peak "
        f"{ideal_v.max_peak:.3f}, {ideal_events} conflict events",
        f"generations+bloom: detected={practical_v.detected}, peak "
        f"{practical_v.max_peak:.3f}, {practical_events} conflict events",
        "(the practical design preserves the oscillation signal)",
    )
