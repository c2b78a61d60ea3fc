"""The simulated machine: hardware assembly plus process execution.

``Machine`` wires the discrete-event engine to the resource models (bus,
per-core dividers, shared L2), owns the indicator-event taps the
CC-auditor reads, spawns processes, dispatches their operations, and runs
the quantum loop that drives per-OS-quantum detection hooks.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Callable, List, Optional, Tuple


from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_default
from repro.obs.tracing import trace_span
from repro.hardware.conflict_tracker import (
    ConflictMissTracker,
    GenerationConflictTracker,
)
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.events import EventTap, LabeledEventTap, RateSegmentTap
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
from repro.sim.resources.bus import MemoryBus
from repro.sim.resources.cache import SharedCache
from repro.sim.resources.divider import DividerUnit
from repro.sim.scheduler import Scheduler
from repro.util.rng import derive_rng

#: Signature of per-quantum hooks: (quantum index, window start, window end).
QuantumHook = Callable[[int, int, int], None]

_log = get_logger("sim.machine")


class Machine:
    """A quad-core, 2-way SMT machine with auditable shared resources."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        tracker: Optional[ConflictMissTracker] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or MachineConfig()
        self.seed = seed
        self.clock = Clock(self.config.frequency_hz)
        self.engine = Engine()
        self.metrics = metrics if metrics is not None else get_default()
        self.scheduler = Scheduler(self.config, metrics=self.metrics)
        self._m_quanta = self.metrics.counter(
            "cchunter_sim_quanta_total", "OS quanta simulated"
        )
        self._m_events = self.metrics.counter(
            "cchunter_sim_events_total", "discrete-event callbacks executed"
        )
        self._m_cycles = self.metrics.counter(
            "cchunter_sim_cycles_total", "simulated cycles advanced"
        )
        self._m_wall = self.metrics.counter(
            "cchunter_sim_wall_seconds_total",
            "wall-clock seconds spent inside run_quanta",
        )
        self._m_qps = self.metrics.gauge(
            "cchunter_sim_quanta_per_second",
            "simulated quanta per wall second (last run_quanta call)",
        )
        self._m_time_ratio = self.metrics.gauge(
            "cchunter_sim_time_ratio",
            "simulated seconds per wall second (last run_quanta call)",
        )
        self._m_quantum_wall = self.metrics.histogram(
            "cchunter_sim_quantum_wall_seconds",
            "wall time of one simulated OS quantum (events + hooks)",
        )

        # Indicator-event taps the CC-auditor can be pointed at.
        self.bus_lock_tap = EventTap("membus.lock")
        self.divider_wait_taps: List[RateSegmentTap] = [
            RateSegmentTap(f"divider{core}.wait")
            for core in range(self.config.n_cores)
        ]
        self.multiplier_wait_taps: List[RateSegmentTap] = [
            RateSegmentTap(f"multiplier{core}.wait")
            for core in range(self.config.n_cores)
        ]
        self.cache_miss_tap = LabeledEventTap("l2.conflict_miss")

        self.bus = MemoryBus(
            self.config.bus, self.bus_lock_tap, derive_rng(seed, "bus")
        )
        self.dividers: List[DividerUnit] = [
            DividerUnit(
                core,
                self.config.divider,
                self.divider_wait_taps[core],
                derive_rng(seed, "divider", core),
            )
            for core in range(self.config.n_cores)
        ]
        self.multipliers: List[DividerUnit] = [
            DividerUnit(
                core,
                self.config.multiplier,
                self.multiplier_wait_taps[core],
                derive_rng(seed, "multiplier", core),
            )
            for core in range(self.config.n_cores)
        ]
        self.tracker: ConflictMissTracker = tracker or GenerationConflictTracker(
            capacity=self.config.l2.n_blocks
        )
        self.l2 = SharedCache(
            self.config.l2,
            self.tracker,
            self.cache_miss_tap,
            derive_rng(seed, "l2"),
        )
        self.engine.settle = self.l2.settle
        self._quantum_hooks: List[QuantumHook] = []
        self.quanta_completed = 0

    # ---------------------------------------------------------------- spawn

    def spawn(
        self,
        process: Process,
        ctx: Optional[int] = None,
        core: Optional[int] = None,
        start_time: Optional[int] = None,
    ) -> Process:
        """Place a process on a hardware context and start it.

        ``ctx`` pins a specific SMT thread; ``core`` picks any free thread
        of that core. The process starts at ``start_time`` (default: now).
        """
        self.scheduler.place(process, ctx=ctx, core=core)
        process.machine = self
        t0 = self.engine.now if start_time is None else int(start_time)
        process.start_time = t0
        self.engine.schedule(t0, self._continuation(process), process.priority)
        return process

    def _continuation(self, process: Process) -> Callable[[], None]:
        """The process's single resumption callback.

        One closure serves the process's whole life — the next ``send``
        value rides in a one-cell box — so advancing a process costs a
        plain call, with no per-event closure allocation (this is the
        per-event hot path: every simulated operation passes through
        here once). It holds the machine weakly, so the engine's queue
        keeps no finished machine alive.
        """
        gen = process.run()
        machine_ref = weakref.ref(self)
        priority = process.priority
        send = getattr(gen, "send", None)
        if send is None:
            # A plain iterable body (no generator protocol): results of
            # executed operations are simply dropped, as before.
            it = iter(gen)

            def send(_value):
                return next(it)

        box = [None]

        def resume() -> None:
            machine = machine_ref()
            engine = machine.engine
            try:
                op = send(box[0])
            except StopIteration:
                process.finished = True
                process.finish_time = engine.now
                machine.scheduler.release(process)
                return
            end, box[0] = machine._execute(process, op)
            if end < engine.now:
                raise SimulationError(
                    f"operation {op!r} of {process.name!r} ended in the past"
                )
            engine.schedule(end, resume, priority)

        return resume

    # ------------------------------------------------------------- execution

    def _execute(self, process: Process, op) -> Tuple[int, object]:
        """Run one operation against the hardware; returns (end time, result)."""
        now = self.engine.now
        ctx = process.ctx
        if ctx is None:
            raise SimulationError(f"{process.name!r} has no hardware context")
        handler = _OP_HANDLERS.get(type(op))
        if handler is None:
            for op_type, candidate in _OP_HANDLERS.items():
                if isinstance(op, op_type):
                    handler = candidate
                    break
            else:
                raise SimulationError(f"unknown operation type: {op!r}")
        return handler(self, process, op, now, ctx)

    def _op_compute(self, process, op, now, ctx):
        return now + op.cycles, None

    def _op_wait_until(self, process, op, now, ctx):
        return max(now, op.time), None

    def _op_bus_lock_burst(self, process, op, now, ctx):
        return self.bus.lock_burst(ctx, now, op.count, op.period), None

    def _op_bus_sample(self, process, op, now, ctx):
        return self.bus.sample(ctx, now, op.count, op.period)

    def _op_divider_saturate(self, process, op, now, ctx):
        units = self.functional_units(op.unit)
        return units[process.core].saturate(ctx, now, op.duration), None

    def _op_divider_loop(self, process, op, now, ctx):
        units = self.functional_units(op.unit)
        return units[process.core].run_loop(
            ctx, now, op.iterations, op.divs_per_iter
        )

    def _op_cache_access_series(self, process, op, now, ctx):
        return self.l2.access_series(ctx, op.accesses, op.gap, now)

    # The Random* operations are non-blocking *registrations*: they
    # commit activity covering [now, now + duration) and complete
    # immediately, so one noise process can register several activity
    # types for the same window (advancing time is the body's job, via
    # WaitUntil/Compute — see repro.workloads.base).

    def _op_random_bus_locks(self, process, op, now, ctx):
        rate_per_cycle = op.rate_per_second / self.clock.frequency_hz
        self.bus.noise_locks(ctx, now, op.duration, rate_per_cycle)
        return now, None

    def _op_random_divider_use(self, process, op, now, ctx):
        self.dividers[process.core].random_use(
            ctx,
            now,
            op.duration,
            op.duty,
            op.burst_cycles,
            intensity=op.intensity,
        )
        return now, None

    def _op_random_cache_traffic(self, process, op, now, ctx):
        self.l2.random_traffic(
            ctx,
            now,
            op.duration,
            op.count,
            set_lo=op.set_lo,
            set_hi=op.set_hi,
            tag_space=op.tag_space,
        )
        return now, None

    # ------------------------------------------------------------- run loop

    @property
    def quantum_cycles(self) -> int:
        return self.config.quantum_cycles

    def on_quantum_end(self, hook: QuantumHook) -> None:
        """Register a hook fired at every OS-quantum boundary.

        Hooks receive ``(quantum_index, window_start, window_end)`` and run
        after every process event inside the window has executed — this is
        where the CC-Hunter daemon reads the auditor.
        """
        self._quantum_hooks.append(hook)

    def run_quanta(self, n_quanta: int) -> None:
        """Advance the simulation by ``n_quanta`` OS time quanta."""
        if n_quanta <= 0:
            raise SimulationError(f"must run a positive number of quanta: {n_quanta}")
        width = self.quantum_cycles
        timed = self.metrics.enabled
        t_start = perf_counter() if timed else 0.0
        events_before = self.engine.events_executed
        for _ in range(n_quanta):
            q = self.quanta_completed
            t0, t1 = q * width, (q + 1) * width
            t_quantum = perf_counter() if timed else 0.0
            with trace_span("sim.quantum", quantum=q):
                self.engine.run_until(t1)
                for hook in self._quantum_hooks:
                    hook(q, t0, t1)
            if timed:
                self._m_quantum_wall.observe(perf_counter() - t_quantum)
            self.quanta_completed += 1
        if timed:
            elapsed = perf_counter() - t_start
            events = self.engine.events_executed - events_before
            self._m_quanta.inc(n_quanta)
            self._m_events.inc(events)
            self._m_cycles.inc(n_quanta * width)
            self._m_wall.inc(elapsed)
            if elapsed > 0:
                self._m_qps.set(n_quanta / elapsed)
                self._m_time_ratio.set(
                    n_quanta * self.config.os_quantum_seconds / elapsed
                )
            _log.debug(
                "ran %d quanta (%d events) in %.3fs",
                n_quanta,
                events,
                elapsed,
            )

    def run_until(self, t_end: int) -> None:
        """Advance to an absolute cycle without quantum bookkeeping."""
        self.engine.run_until(t_end)

    @property
    def now(self) -> int:
        return self.engine.now

    def functional_units(self, kind: str) -> List[DividerUnit]:
        """The per-core units of a kind ('divider' or 'multiplier')."""
        if kind == "divider":
            return self.dividers
        if kind == "multiplier":
            return self.multipliers
        raise SimulationError(f"unknown functional unit kind {kind!r}")

    def divider_wait_tap_for(self, core: int) -> RateSegmentTap:
        """The wait-event tap of a core's divider unit."""
        if not 0 <= core < self.config.n_cores:
            raise SimulationError(f"core {core} outside machine")
        return self.divider_wait_taps[core]

    def multiplier_wait_tap_for(self, core: int) -> RateSegmentTap:
        """The wait-event tap of a core's multiplier unit."""
        if not 0 <= core < self.config.n_cores:
            raise SimulationError(f"core {core} outside machine")
        return self.multiplier_wait_taps[core]


#: Exact-type operation dispatch: one dict probe instead of a cascade of
#: isinstance checks on the per-event hot path (subclasses of the op
#: types fall back to the isinstance scan). Handlers take the machine
#: first; a table of bound methods would keep every machine in a cycle.
_OP_HANDLERS = {
    Compute: Machine._op_compute,
    WaitUntil: Machine._op_wait_until,
    BusLockBurst: Machine._op_bus_lock_burst,
    BusSample: Machine._op_bus_sample,
    DividerSaturate: Machine._op_divider_saturate,
    DividerLoop: Machine._op_divider_loop,
    CacheAccessSeries: Machine._op_cache_access_series,
    RandomBusLocks: Machine._op_random_bus_locks,
    RandomDividerUse: Machine._op_random_divider_use,
    RandomCacheTraffic: Machine._op_random_cache_traffic,
}
