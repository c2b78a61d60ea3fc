"""Discrete-event simulation kernel.

A minimal priority-queue engine: callbacks are scheduled at
``(time, priority, sequence)`` and executed in that order. Virtual time is
integer cycles and only moves forward.

Ordering contract (producers before consumers)
----------------------------------------------
Resource models in this package commit *usage* (bus locks, divider
occupancy) at the moment an operation is issued, covering the operation's
whole duration. Observers that sample a window must therefore run *after*
every producer that could affect that window has issued its usage. The
engine guarantees this within a timestamp via priorities
(:class:`Priority`): noise and trojan processes run at ``PRODUCER``, spies
at ``CONSUMER``, and detector/daemon hooks at ``DAEMON``. Channel and
workload implementations keep their operations inside one synchronization
phase (one covert bit period / one OS quantum), which makes the
producers-first order sufficient — exactly the synchronization the paper's
threat model already assumes of trojan/spy pairs.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError


class Priority(IntEnum):
    """Execution order among callbacks scheduled at the same cycle."""

    PRODUCER = 0
    CONSUMER = 10
    DAEMON = 100
    QUANTUM_BOUNDARY = 1000


def _settled() -> None:
    """Nothing deferred: the settle of an engine no machine registered."""


class Engine:
    """A forward-only discrete-event executor over integer cycle time."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Tuple[int, int, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_executed = 0
        #: Called before :meth:`run_until` and :meth:`run` return. A
        #: resource that defers work past the events causing it (the
        #: shared cache's conflict classification) is registered here by
        #: its machine, so its state is complete whenever control leaves
        #: the engine.
        self.settle: Callable[[], None] = _settled

    def schedule(
        self,
        time: int,
        callback: Callable[[], None],
        priority: int = Priority.PRODUCER,
    ) -> None:
        """Schedule ``callback`` to run at cycle ``time``.

        Scheduling in the past is an error: resources have already committed
        state for earlier cycles.
        """
        time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; current time is {self.now}"
            )
        heapq.heappush(self._queue, (time, int(priority), self._seq, callback))
        self._seq += 1

    @property
    def pending(self) -> int:
        """Number of queued callbacks."""
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next queued callback, or None when idle."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Run the single next callback. Returns False when queue is empty."""
        if not self._queue:
            return False
        time, _priority, _seq, callback = heapq.heappop(self._queue)
        self.now = time
        self._events_executed += 1
        callback()
        return True

    def run_until(self, t_end: int) -> None:
        """Run all callbacks scheduled strictly before cycle ``t_end``.

        Afterwards ``now`` is at least ``t_end`` (time jumps to ``t_end``
        even if the queue drained earlier), so subsequent scheduling can
        assume the window ``[.., t_end)`` is fully settled.
        """
        # Inlined step(): this loop pops tens of thousands of events per
        # quantum, so the per-event method call and duplicate emptiness
        # check are measurable.
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] < t_end:
            time, _priority, _seq, callback = pop(queue)
            self.now = time
            self._events_executed += 1
            callback()
        if self.now < t_end:
            self.now = t_end
        self.settle()

    def run(self) -> None:
        """Run until the queue is empty."""
        while self.step():
            pass
        self.settle()
