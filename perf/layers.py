"""Outside-in timing of the program's layers.

Two instruments, both installed by replacing attributes of the program's
classes and modules and both undone by ``restore()``:

- :class:`QuantumClock` stamps every simulated OS quantum. It wraps
  ``Machine.run_quanta`` to register one ``on_quantum_end`` hook after
  every hook the detector already registered, and ``Engine.run_until``
  to note when the simulator finished a quantum. It is active in every
  run; untraced runs read their end-to-end latencies from it.
- :class:`Tracer` wraps the public entry points of each layer (see
  ``TARGETS``) and charges every call's *self time* — its duration minus
  the wrapped calls nested inside it — to the layer that owns it. Only
  ``--trace 1`` runs install it.

``SharedCache.access`` is deliberately absent from ``TARGETS``: the cache
falls back to its per-access loop when ``access`` is replaced, so wrapping
it would measure a different program.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from collections import defaultdict
from time import perf_counter


class SetupDone(BaseException):
    """Raised at the first quantum by a set-up probe.

    A ``BaseException`` so the program's ``except Exception`` containment
    boundaries let it through.
    """


def _replay_counts(counts, args, result):
    counts["candidates"] += len(args[2])
    counts["conflicts"] += int(result.sum())


def _hashed_keys(counts, args, result):
    counts["keys"] += len(result)


def _ingested_windows(counts, args, result):
    counts["windows"] += len(args[1])


#: (layer, "module:attribute path", counter or None). A counter receives
#: ``(counts, args, result)`` after each call and adds to ``counts``.
TARGETS = (
    ("sim.engine", "repro.sim.engine:Engine.run_until", None),
    ("sim.resources.bus", "repro.sim.resources.bus:MemoryBus.lock_burst", None),
    ("sim.resources.bus", "repro.sim.resources.bus:MemoryBus.sample", None),
    ("sim.resources.bus", "repro.sim.resources.bus:MemoryBus.noise_locks", None),
    ("sim.resources.divider",
     "repro.sim.resources.divider:DividerUnit.saturate", None),
    ("sim.resources.divider",
     "repro.sim.resources.divider:DividerUnit.run_loop", None),
    ("sim.resources.divider",
     "repro.sim.resources.divider:DividerUnit.random_use", None),
    ("sim.resources.cache",
     "repro.sim.resources.cache:SharedCache.access_series", None),
    ("sim.resources.cache",
     "repro.sim.resources.cache:SharedCache.random_traffic", None),
    ("hardware.conflict_tracker",
     "repro.hardware.conflict_tracker:GenerationConflictTracker"
     ".replay_check_batch", _replay_counts),
    ("hardware.bloom", "repro.hardware.bloom:BloomFilter.add_batch", None),
    ("hardware.bloom", "repro.hardware.bloom:BloomFilter.contains_batch", None),
    ("hardware.bloom", "repro.hardware.bloom:hash_indices_batch", _hashed_keys),
    ("hardware.auditor",
     "repro.hardware.auditor:MonitorSlot.ingest_window_counts",
     _ingested_windows),
    ("hardware.auditor",
     "repro.hardware.auditor:VectorRegisterPair.record_batch", None),
    ("pipeline.analyzers.burst",
     "repro.pipeline.analyzers:BurstAnalyzer.push", None),
    ("pipeline.analyzers.oscillation",
     "repro.pipeline.analyzers:OscillationAnalyzer.push", None),
    ("pipeline.session.push",
     "repro.pipeline.session:DetectionSession.push_quantum", None),
    ("pipeline.session.verdict",
     "repro.pipeline.session:DetectionSession.current_verdicts", None),
    ("serve.wire.decode", "repro.serve.wire:decode_payload", None),
    ("serve.wire.encode", "repro.serve.wire:encode_frame", None),
    ("serve.slo", "repro.obs.slo:SloTracker.observe", None),
    ("serve.slo", "repro.obs.slo:SloTracker.observe_latency", None),
    ("serve.slo", "repro.obs.slo:SloTracker.observe_shed", None),
    ("serve.slo", "repro.obs.slo:SloTracker.observe_health", None),
    ("serve.slo", "repro.obs.slo:SloTracker.evaluate", None),
)

#: The layer that absorbs a stamped quantum's time outside every wrapped
#: call: the tap reads and observation fan-out of the machine source.
SOURCE_LAYER = "pipeline.source"


def _resolve(spec):
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Self-time accounting over wrapped calls.

    ``layers[name]`` holds ``self_s`` (seconds), ``calls`` and whatever
    the targets' counters add. ``missing`` lists targets that no longer
    exist in the program; their time stays unattributed.
    """

    def __init__(self):
        self.layers = defaultdict(lambda: defaultdict(float))
        self.missing = []
        self._stack = []
        self._frames = []
        self._patches = _Patches()

    # -------------------------------------------------------------- frames

    def begin(self):
        """Open a frame not tied to a wrapped call (a quantum)."""
        self._stack.append(0.0)
        self._frames.append(perf_counter())

    def end(self, layer):
        """Close the innermost :meth:`begin` frame; charge ``layer``.

        With ``layer`` None the frame's time is dropped, not attributed.
        """
        duration = perf_counter() - self._frames.pop()
        self._finish(layer, duration, self._stack.pop())

    def _finish(self, layer, duration, nested):
        stack = self._stack
        if stack:
            stack[-1] += duration
        if layer is not None:
            record = self.layers[layer]
            record["self_s"] += duration - nested
            record["calls"] += 1

    # ------------------------------------------------------------ wrapping

    def wrap(self, layer, fn, counter=None):
        stack = self._stack
        finish = self._finish
        counts = self.layers[layer]

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(layer, perf_counter() - t0, stack.pop())
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        for layer, spec, counter in targets:
            try:
                owner, name = _resolve(spec)
                original = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(spec)
                continue
            wrapped = self.wrap(layer, original, counter)
            if isinstance(owner, type):
                self._patches.set(owner, name, wrapped)
                continue
            # A module function: replace it wherever the program looks it
            # up, i.e. in every loaded module that imported it by name.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(name) is original
                ):
                    self._patches.set(module, name, wrapped)
        return self

    def restore(self):
        self._patches.restore()

    # ------------------------------------------------------------ reading

    def value(self, layer, key="self_s"):
        return float(self.layers[layer][key]) if layer in self.layers else 0.0

    def attributed_s(self):
        return sum(record["self_s"] for record in self.layers.values())


class QuantumClock:
    """Per-quantum host-time stamps taken around the detector's hook.

    ``quantum_s[i]`` is the host time from the end of quantum ``i - 1``
    (or from ``run_quanta`` being called) to the end of quantum ``i``'s
    last hook — simulation plus detection. ``verdict_s[i]`` is the part
    after the simulator reached the quantum boundary: the detector's tap
    reads, analyzer pushes and verdict evaluation. ``quantum_at[i]`` is
    the ``perf_counter()`` time of that stamp. ``sim`` holds one
    snapshot of simulated statistics per ``run_quanta`` call (the
    session runners call it once per machine); machines themselves are
    not kept, so they are freed as the program drops them.

    With a ``host`` (:class:`hostspeed.HostSpeed`), the host's speed is
    sampled at quantum boundaries when one is due, outside every stamped
    interval.
    """

    def __init__(self, setup_probe=False, host=None):
        self.setup_probe = setup_probe
        self.host = host
        #: ``time.monotonic()`` when the first quantum started.
        self.first_quantum_at = None
        self.quantum_s = []
        self.verdict_s = []
        self.quantum_at = []
        self.sim = []
        self.tracer = None
        self._hooked = weakref.WeakSet()
        self._t_prev = 0.0
        self._t_due = 0.0
        self._patches = _Patches()

    def install(self):
        from repro.sim.engine import Engine
        from repro.sim.machine import Machine

        clock = self
        run_quanta = Machine.__dict__["run_quanta"]
        run_until = Engine.__dict__["run_until"]

        def stamped_run_quanta(machine, n_quanta):
            if clock.first_quantum_at is None:
                clock.first_quantum_at = time.monotonic()
            if clock.setup_probe:
                raise SetupDone()
            if machine not in clock._hooked:
                clock._hooked.add(machine)
                machine.on_quantum_end(clock._quantum_end)
            tracer = clock.tracer
            if tracer is not None:
                tracer.begin()
            clock._t_prev = perf_counter()
            try:
                return run_quanta(machine, n_quanta)
            finally:
                if tracer is not None:
                    tracer.end(None)
                clock.sim.append(sim_statistics(machine))

        def stamped_run_until(engine, t_end):
            run_until(engine, t_end)
            clock._t_due = perf_counter()

        self._patches.set(Machine, "run_quanta", stamped_run_quanta)
        self._patches.set(Engine, "run_until", stamped_run_until)
        return self

    def _quantum_end(self, quantum, t0, t1):
        now = perf_counter()
        self.quantum_s.append(now - self._t_prev)
        self.verdict_s.append(now - self._t_due)
        self.quantum_at.append(now)
        self._t_prev = now
        tracer = self.tracer
        if tracer is not None:
            tracer.end(SOURCE_LAYER)
            tracer.begin()
        host = self.host
        if host is not None and host.due(now):
            host.sample()
            self._t_prev = perf_counter()

    def restore(self):
        self._patches.restore()


def sim_statistics(machine):
    """The simulated statistics a faster simulator must leave unchanged."""
    return {
        "quanta": int(machine.quanta_completed),
        "events": int(machine.engine.events_executed),
        "bus_locks": int(machine.bus.total_locks),
        "cache_hits": int(machine.l2.hits),
        "cache_misses": int(machine.l2.misses),
        "cache_conflicts": int(machine.l2.conflict_misses),
    }
