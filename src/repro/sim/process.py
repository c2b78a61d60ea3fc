"""Process model: generator-based actors issuing hardware operations.

A :class:`Process` is a coroutine that yields *operations* (the dataclasses
below); the machine executes each operation against its resource models,
advances the process's virtual time by the operation's duration, and sends
the operation's result (e.g. observed latencies) back into the coroutine.

Operations are deliberately batch-grained — "perform N timed memory
accesses", "saturate the divider for D cycles" — so that multi-million
cycle phases cost O(1) Python work while still producing exact
indicator-event streams. This is the key substitution that makes a paper
whose conflicts come from real x86 execution reproducible in Python (see
DESIGN.md).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Generator, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Priority


@dataclass(frozen=True)
class Compute(object):
    """Occupy this context with private computation for ``cycles`` cycles."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise SimulationError(f"cannot compute for {self.cycles} cycles")


@dataclass(frozen=True)
class WaitUntil(object):
    """Sleep until absolute cycle ``time`` (no-op if already reached)."""

    time: int


@dataclass(frozen=True)
class BusLockBurst(object):
    """Trojan-style bus locking: ``count`` atomic unaligned accesses.

    Each access locks the memory bus for the configured lock duration;
    accesses are issued every ``period`` cycles. This is the '1'-bit action
    of the memory-bus covert channel.
    """

    count: int
    period: int

    def __post_init__(self) -> None:
        if self.count <= 0 or self.period <= 0:
            raise SimulationError("bus lock burst needs positive count and period")


@dataclass(frozen=True)
class BusSample(object):
    """Spy-style timed memory accesses over the bus.

    Issues ``count`` cache-missing loads spaced by ``period`` cycles and
    returns the observed latency of each (a numpy array). Latency rises
    while the bus is lock-contended, which is how the spy reads bits.
    """

    count: int
    period: int

    def __post_init__(self) -> None:
        if self.count <= 0 or self.period <= 0:
            raise SimulationError("bus sampling needs positive count and period")


#: Functional units that ops below may target on the issuing core.
FUNCTIONAL_UNITS = ("divider", "multiplier")


def _check_unit(unit: str) -> None:
    if unit not in FUNCTIONAL_UNITS:
        raise SimulationError(
            f"unknown functional unit {unit!r}; choose from "
            f"{FUNCTIONAL_UNITS}"
        )


@dataclass(frozen=True)
class DividerSaturate(object):
    """Trojan-style functional-unit contention: keep the unit busy.

    Occupies this core's divider (or multiplier, via ``unit``) for
    ``duration`` cycles; any sibling hyperthread operation executed
    meanwhile waits on the busy unit and raises wait-on-busy indicator
    events.
    """

    duration: int
    unit: str = "divider"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise SimulationError("saturation duration must be positive")
        _check_unit(self.unit)


@dataclass(frozen=True)
class DividerLoop(object):
    """Spy-style timed operation loop on a functional unit.

    Runs ``iterations`` loop iterations, each containing ``divs_per_iter``
    dependent operations on the chosen ``unit`` (divider by default), and
    returns per-iteration latencies. Iterations overlapping sibling
    occupancy of the unit take longer.
    """

    iterations: int
    divs_per_iter: int = 4
    unit: str = "divider"

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.divs_per_iter <= 0:
            raise SimulationError("functional-unit loop needs positive sizes")
        _check_unit(self.unit)


@dataclass(frozen=True)
class CacheAccessSeries(object):
    """A sequence of L2 accesses: ``accesses[i] = (set_index, tag)``.

    Accesses issue back-to-back (each one's start is the previous one's
    completion plus ``gap`` cycles). Returns a numpy array of latencies.
    ``accesses`` may be a tuple of pairs or an ``(n, 2)`` integer ndarray
    — channels that reuse a fixed access pattern pass a precomputed
    array so the cache's batch kernel skips the per-series conversion.
    """

    accesses: Tuple[Tuple[int, int], ...]
    gap: int = 8

    def __post_init__(self) -> None:
        if len(self.accesses) == 0:
            raise SimulationError("cache access series cannot be empty")
        if self.gap < 0:
            raise SimulationError("cache access gap cannot be negative")


@dataclass(frozen=True)
class RandomBusLocks(object):
    """Background noise: sparse random bus-lock events over ``duration``.

    ``rate`` is expected lock events per second of virtual time; arrival
    times are Poisson. Models benign programs that occasionally execute
    atomic unaligned operations.

    Like all ``Random*`` operations this is a *non-blocking registration*:
    it commits activity covering ``[now, now + duration)`` and completes
    immediately; the issuing process advances time with WaitUntil/Compute.
    """

    duration: int
    rate_per_second: float

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.rate_per_second < 0:
            raise SimulationError("noise burst needs positive duration, rate >= 0")


@dataclass(frozen=True)
class RandomDividerUse(object):
    """Background noise: random divider bursts over ``duration``.

    The context runs division-heavy bursts covering a ``duty`` fraction of
    the window; within a burst it occupies an ``intensity`` fraction of
    the divider's issue slots (benign code mixes divisions with other
    work, unlike a saturating trojan). Non-blocking registration.
    """

    duration: int
    duty: float
    burst_cycles: int = 25_000
    intensity: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty <= 1.0:
            raise SimulationError(f"duty must be in [0, 1], got {self.duty}")
        if self.duration <= 0 or self.burst_cycles <= 0:
            raise SimulationError("noise use needs positive duration and burst")
        if not 0.0 < self.intensity <= 1.0:
            raise SimulationError(
                f"intensity must be in (0, 1], got {self.intensity}"
            )


@dataclass(frozen=True)
class RandomCacheTraffic(object):
    """Background noise: ``count`` random-set cache accesses over ``duration``.

    Accesses spread uniformly over the window and touch uniformly random
    sets within ``[set_lo, set_hi)`` with per-context private tags, creating
    the benign conflict misses that perturb the covert train.
    """

    duration: int
    count: int
    set_lo: int = 0
    set_hi: Optional[int] = None
    tag_space: int = 64

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.count < 0:
            raise SimulationError("noise traffic needs positive duration")
        if self.tag_space <= 0:
            raise SimulationError("tag space must be positive")


ProcessBody = Callable[["Process"], Generator[object, object, None]]


class Process:
    """A schedulable software process.

    Subclass and override :meth:`run`, or pass a generator-function
    ``body``. Inside the generator, ``yield op`` executes the operation and
    evaluates to its result::

        def body(proc):
            latencies = yield BusSample(count=100, period=500)
            yield Compute(10_000)

        p = Process("spy", body=body, priority=Priority.CONSUMER)

    The machine fills in :attr:`ctx` (hardware context id) at spawn time.
    """

    def __init__(
        self,
        name: str,
        body: Optional[ProcessBody] = None,
        priority: int = Priority.PRODUCER,
    ):
        self.name = name
        self.priority = int(priority)
        self._body = body
        self.ctx: Optional[int] = None
        self._machine_ref = None  # set by Machine.spawn
        self.finished = False
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None

    @property
    def machine(self):
        """The machine the process was spawned on, held weakly."""
        ref = self._machine_ref
        return None if ref is None else ref()

    @machine.setter
    def machine(self, machine) -> None:
        self._machine_ref = None if machine is None else weakref.ref(machine)

    def run(self) -> Generator[object, object, None]:
        """The process body; yields operations, receives their results."""
        if self._body is None:
            raise NotImplementedError(
                f"process {self.name!r}: pass body= or override run()"
            )
        return self._body(self)

    @property
    def core(self) -> int:
        """The core this process's hardware context belongs to."""
        if self.ctx is None or self.machine is None:
            raise SimulationError(f"process {self.name!r} is not scheduled yet")
        return self.ctx // self.machine.config.threads_per_core

    def __repr__(self) -> str:
        where = f"ctx={self.ctx}" if self.ctx is not None else "unscheduled"
        return f"Process({self.name!r}, {where})"
