"""A live CCHunter session and a spec-built session agree quantum by quantum.

``CCHunter`` builds each analyzer around the auditor slot it programmed;
trace replay and every served tenant build theirs from channel specs
alone (``build_session_from_specs``). Both go through one factory, so
replaying a live audit's observations into a spec-built session must give
the same verdict for every unit at every quantum.
"""

from repro import (
    AuditUnit,
    CacheCovertChannel,
    CCHunter,
    ChannelConfig,
    DividerCovertChannel,
    Machine,
    MemoryBusCovertChannel,
    Message,
    background_noise_processes,
)
from repro.config import MachineConfig
from repro.pipeline import BurstAnalyzer, build_session_from_specs


class _Recorder:
    """Subscribed after the hunter's session: sees each observation once
    the session has folded it, and reads the live verdicts right then."""

    def __init__(self, hunter):
        self.hunter = hunter
        self.observations = []
        self.verdicts = []

    def push_quantum(self, obs):
        self.observations.append(obs)
        self.verdicts.append(_by_unit(self.hunter.current_verdicts()))


def _by_unit(report):
    return {verdict.unit: verdict for verdict in report.verdicts}


def _burst_histograms(session):
    """Each burst unit's retained per-quantum histograms: finer than the
    verdict, so a difference in the density accumulators shows."""
    return {
        analyzer.unit: [hist.tolist() for hist in analyzer.histograms]
        for analyzer in session.analyzers
        if isinstance(analyzer, BurstAnalyzer)
    }


def _assert_replay_matches(hunter, recorder):
    assert recorder.observations
    replayed = build_session_from_specs(hunter.source.channels())
    assert sorted(replayed.units) == sorted(hunter.session.units)
    for obs, live in zip(recorder.observations, recorder.verdicts):
        replayed.push_quantum(obs)
        assert _by_unit(replayed.current_verdicts()) == live, obs.quantum
    assert _by_unit(replayed.close()) == _by_unit(hunter.session.close())
    assert _burst_histograms(replayed) == _burst_histograms(hunter.session)


class TestCCHunterMatchesSpecSession:
    def test_membus_and_divider(self):
        # 8 quanta of 20 ms; both verdicts flip to detected mid-run.
        machine = Machine(
            config=MachineConfig(os_quantum_seconds=0.02), seed=21
        )
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.MEMORY_BUS)
        hunter.audit(AuditUnit.DIVIDER, core=0)
        recorder = _Recorder(hunter)
        hunter.feed.subscribe(recorder)
        bus = MemoryBusCovertChannel(
            machine,
            ChannelConfig(message=Message.random(16, 21), bandwidth_bps=100.0),
        )
        bus.deploy(trojan_ctx=2, spy_ctx=4)
        divider = DividerCovertChannel(
            machine,
            ChannelConfig(message=Message.random(16, 22), bandwidth_bps=100.0),
        )
        divider.deploy(core=0)
        quanta = max(bus.quanta_needed(), divider.quanta_needed())
        background_noise_processes(
            machine, n_quanta=quanta, avoid_contexts=(0, 1, 2, 4), seed=21
        )
        machine.run_quanta(quanta)
        first = recorder.verdicts[0]
        final = recorder.verdicts[-1]
        for unit in ("membus", "divider(core 0)"):
            assert not first[unit].detected
            assert final[unit].detected
        _assert_replay_matches(hunter, recorder)

    def test_cache(self):
        machine = Machine(
            config=MachineConfig(os_quantum_seconds=0.01), seed=23
        )
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.CACHE)
        recorder = _Recorder(hunter)
        hunter.feed.subscribe(recorder)
        channel = CacheCovertChannel(
            machine,
            ChannelConfig(message=Message.random(8, 23), bandwidth_bps=100.0),
            n_sets_total=64,
        )
        channel.deploy()
        machine.run_quanta(channel.quanta_needed())
        assert len(recorder.observations) == 8
        assert recorder.verdicts[-1]["cache"].oscillating_windows == 8
        _assert_replay_matches(hunter, recorder)
