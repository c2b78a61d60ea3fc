"""Tests for the machine: process execution, op dispatch, quantum loop."""

import pytest

from repro.config import MachineConfig
from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Priority
from repro.sim.machine import Machine
from repro.sim.process import (
    BusLockBurst,
    BusSample,
    CacheAccessSeries,
    Compute,
    DividerLoop,
    DividerSaturate,
    Process,
    RandomBusLocks,
    RandomCacheTraffic,
    RandomDividerUse,
    WaitUntil,
)


def run_body(machine, body, ctx=0, priority=Priority.PRODUCER):
    proc = Process("test", body=body, priority=priority)
    machine.spawn(proc, ctx=ctx)
    machine.engine.run()
    return proc


class TestProcessLifecycle:
    def test_compute_advances_time(self, machine):
        def body(proc):
            yield Compute(1000)
            yield Compute(500)

        proc = run_body(machine, body)
        assert proc.finished
        assert proc.finish_time == 1500

    def test_wait_until(self, machine):
        def body(proc):
            yield WaitUntil(5000)

        proc = run_body(machine, body)
        assert proc.finish_time == 5000

    def test_wait_until_past_is_noop(self, machine):
        def body(proc):
            yield Compute(100)
            yield WaitUntil(50)

        proc = run_body(machine, body)
        assert proc.finish_time == 100

    def test_results_sent_into_generator(self, machine):
        seen = {}

        def body(proc):
            latencies = yield BusSample(count=5, period=100)
            seen["latencies"] = latencies

        run_body(machine, body)
        assert seen["latencies"].shape == (5,)

    def test_context_released_on_finish(self, machine):
        def body(proc):
            yield Compute(10)

        run_body(machine, body, ctx=3)
        assert machine.scheduler.occupant(3) is None

    def test_cannot_double_book_context(self, machine):
        p1 = Process("a", body=lambda p: iter(()))
        p2 = Process("b", body=lambda p: iter(()))
        machine.spawn(p1, ctx=0)
        with pytest.raises(SchedulingError):
            machine.spawn(p2, ctx=0)

    def test_core_property(self, machine):
        def body(proc):
            yield Compute(1)

        proc = run_body(machine, body, ctx=5)
        assert proc.core == 2  # 2 threads per core

    def test_unknown_op_raises(self, machine):
        def body(proc):
            yield "not-an-op"

        proc = Process("bad", body=body)
        machine.spawn(proc, ctx=0)
        with pytest.raises(SimulationError):
            machine.engine.run()


class TestOpDispatch:
    def test_bus_ops_route_to_bus(self, machine):
        def body(proc):
            yield BusLockBurst(count=3, period=1000)

        run_body(machine, body)
        assert machine.bus_lock_tap.count == 3

    def test_divider_ops_route_to_core_unit(self, machine):
        def trojan(proc):
            yield DividerSaturate(duration=100_000)

        def spy(proc):
            yield DividerLoop(iterations=100, divs_per_iter=4)

        machine.spawn(Process("t", body=trojan), ctx=2)  # core 1
        machine.spawn(
            Process("s", body=spy, priority=Priority.CONSUMER), ctx=3
        )
        machine.engine.run()
        assert machine.divider_wait_tap_for(1).count > 0
        assert machine.divider_wait_tap_for(0).count == 0

    def test_cache_series_routes_to_l2(self, machine):
        def body(proc):
            yield CacheAccessSeries(accesses=((0, 1), (0, 1)))

        run_body(machine, body)
        assert machine.l2.hits == 1
        assert machine.l2.misses == 1

    def test_random_ops_are_nonblocking(self, machine):
        def body(proc):
            yield RandomBusLocks(duration=10_000, rate_per_second=1e6)
            yield RandomDividerUse(duration=10_000, duty=0.5)
            yield RandomCacheTraffic(duration=10_000, count=10)
            yield Compute(10_000)

        proc = run_body(machine, body)
        assert proc.finish_time == 10_000  # only Compute advanced time


class TestQuantumLoop:
    def test_hooks_fire_per_quantum(self, small_machine):
        calls = []
        small_machine.on_quantum_end(
            lambda q, t0, t1: calls.append((q, t0, t1))
        )
        small_machine.run_quanta(3)
        width = small_machine.quantum_cycles
        assert calls == [
            (0, 0, width),
            (1, width, 2 * width),
            (2, 2 * width, 3 * width),
        ]

    def test_quanta_counted(self, small_machine):
        small_machine.run_quanta(2)
        small_machine.run_quanta(1)
        assert small_machine.quanta_completed == 3

    def test_bad_quanta(self, machine):
        with pytest.raises(SimulationError):
            machine.run_quanta(0)

    def test_events_within_quantum_precede_hook(self, small_machine):
        order = []

        def body(proc):
            yield Compute(small_machine.quantum_cycles // 2)
            order.append("process")

        small_machine.spawn(Process("p", body=body), ctx=0)
        small_machine.on_quantum_end(lambda q, a, b: order.append("hook"))
        small_machine.run_quanta(1)
        assert order == ["process", "hook"]


class TestTopology:
    def test_context_count(self):
        machine = Machine(MachineConfig(n_cores=2, threads_per_core=2))
        assert machine.config.n_contexts == 4
        assert len(machine.dividers) == 2

    def test_divider_tap_bounds(self, machine):
        with pytest.raises(SimulationError):
            machine.divider_wait_tap_for(99)

    def test_deterministic_given_seed(self):
        def run_once():
            machine = Machine(seed=7)

            def body(proc):
                yield RandomBusLocks(duration=10**7, rate_per_second=1e4)

            machine.spawn(Process("n", body=body), ctx=0)
            machine.engine.run()
            return machine.bus_lock_tap.times()

        assert run_once().tolist() == run_once().tolist()


class TestFinishedSessionsFreed:
    def test_dropped_sessions_freed_by_reference_counting(self, monkeypatch):
        """With the cyclic collector off, a finished session's machine,
        detector and detection session die as soon as they are dropped:
        nothing that outlives the run holds them in a reference cycle."""
        import gc
        import weakref

        from repro.analysis import figures
        from repro.core.detector import CCHunter
        from repro.pipeline.session import DetectionSession
        from repro.util.bitstream import Message

        created = []
        for cls in (Machine, CCHunter, DetectionSession):
            def init(self, *args, _init=cls.__init__, **kwargs):
                created.append(weakref.ref(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run = figures.run_channel_session(
                "cache", Message.random(4, 1), seed=1, noise=True,
                n_sets_total=256,
            )
            run.hunter.session.close()
            del run
            run = figures.run_channel_session(
                "membus", Message.random(4, 1), seed=1, noise=True
            )
            del run
            pair = figures.default_benign_pairs()[0]
            figures.fig14_false_alarms(pairs=[pair], n_quanta=2)
            alive = [type(ref()).__name__ for ref in created if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert len(created) == 11  # the pair audits with two detectors
        assert alive == []
