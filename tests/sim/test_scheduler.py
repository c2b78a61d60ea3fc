"""Tests for OS-level context allocation."""

import pytest

from repro.config import MachineConfig
from repro.errors import SchedulingError
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler


@pytest.fixture
def sched():
    return Scheduler(MachineConfig())


def proc(name="p"):
    return Process(name, body=lambda p: iter(()))


class TestPlacement:
    def test_explicit_context(self, sched):
        p = proc()
        assert sched.place(p, ctx=5) == 5
        assert p.ctx == 5
        assert sched.occupant(5) is p

    def test_core_pinning(self, sched):
        p = proc()
        ctx = sched.place(p, core=2)
        assert sched.core_of(ctx) == 2

    def test_first_free_default(self, sched):
        a, b = proc("a"), proc("b")
        assert sched.place(a) == 0
        assert sched.place(b) == 1

    def test_occupied_context_rejected(self, sched):
        sched.place(proc("a"), ctx=1)
        with pytest.raises(SchedulingError):
            sched.place(proc("b"), ctx=1)

    def test_full_core_rejected(self, sched):
        sched.place(proc("a"), core=0)
        sched.place(proc("b"), core=0)
        with pytest.raises(SchedulingError):
            sched.place(proc("c"), core=0)

    def test_out_of_range_context(self, sched):
        with pytest.raises(SchedulingError):
            sched.place(proc(), ctx=99)

    def test_release(self, sched):
        p = proc()
        sched.place(p, ctx=2)
        sched.release(p)
        assert sched.occupant(2) is None

    def test_free_contexts_per_core(self, sched):
        sched.place(proc("a"), ctx=0)
        assert sched.free_contexts(core=0) == [1]


class TestTopologyQueries:
    def test_contexts_of_core(self, sched):
        assert sched.contexts_of_core(1) == [2, 3]

    def test_core_of(self, sched):
        assert sched.core_of(7) == 3

    def test_bad_core(self, sched):
        with pytest.raises(SchedulingError):
            sched.contexts_of_core(4)

    def test_bad_context(self, sched):
        with pytest.raises(SchedulingError):
            sched.core_of(8)
