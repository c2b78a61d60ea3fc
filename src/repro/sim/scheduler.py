"""OS-level scheduling model: hardware context allocation.

The detector's observation windows are OS time quanta (0.1 s). This
scheduler hands out hardware contexts (SMT threads), optionally pinned to
a core. A placed process keeps its context until it finishes, so labeled
conflict events stay attributable to it; the paper's migration tracking
(Section V-A) is not modelled.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.errors import SchedulingError
from repro.obs.metrics import MetricsRegistry, get_default
from repro.sim.process import Process


class Scheduler:
    """Allocates hardware contexts and tracks which process holds each."""

    def __init__(
        self,
        config: MachineConfig,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self._owner: Dict[int, Optional[Process]] = {
            ctx: None for ctx in range(config.n_contexts)
        }
        m = metrics if metrics is not None else get_default()
        self._m_placements = m.counter(
            "cchunter_sched_placements_total",
            "processes placed on hardware contexts",
        )
        self._m_busy = m.gauge(
            "cchunter_sched_contexts_busy",
            "hardware contexts currently occupied",
        )

    def contexts_of_core(self, core: int) -> List[int]:
        """Hardware context ids belonging to ``core``."""
        if not 0 <= core < self.config.n_cores:
            raise SchedulingError(f"core {core} outside 0..{self.config.n_cores - 1}")
        base = core * self.config.threads_per_core
        return list(range(base, base + self.config.threads_per_core))

    def core_of(self, ctx: int) -> int:
        if not 0 <= ctx < self.config.n_contexts:
            raise SchedulingError(f"context {ctx} outside machine")
        return ctx // self.config.threads_per_core

    def occupant(self, ctx: int) -> Optional[Process]:
        return self._owner[ctx]

    def free_contexts(self, core: Optional[int] = None) -> List[int]:
        """Unoccupied contexts, optionally restricted to one core."""
        candidates = (
            self.contexts_of_core(core)
            if core is not None
            else list(range(self.config.n_contexts))
        )
        return [c for c in candidates if self._owner[c] is None]

    def place(
        self,
        process: Process,
        ctx: Optional[int] = None,
        core: Optional[int] = None,
    ) -> int:
        """Assign ``process`` to a context.

        Explicit ``ctx`` pins exactly; ``core`` picks any free SMT thread of
        that core; neither picks the first free context in the machine.
        """
        if ctx is not None:
            if self._owner.get(ctx) is not None:
                raise SchedulingError(
                    f"context {ctx} already runs {self._owner[ctx].name!r}"
                )
            if not 0 <= ctx < self.config.n_contexts:
                raise SchedulingError(f"context {ctx} outside machine")
            chosen = ctx
        else:
            free = self.free_contexts(core)
            if not free:
                where = f"core {core}" if core is not None else "machine"
                raise SchedulingError(f"no free hardware context on {where}")
            chosen = free[0]
        self._owner[chosen] = process
        process.ctx = chosen
        self._m_placements.inc()
        self._m_busy.inc()
        return chosen

    def release(self, process: Process) -> None:
        """Free the context a finished process occupied."""
        if process.ctx is not None and self._owner.get(process.ctx) is process:
            self._owner[process.ctx] = None
            self._m_busy.dec()
