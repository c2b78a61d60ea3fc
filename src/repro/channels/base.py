"""Common covert-channel machinery: configuration, phase timing, deploy.

All three channels share a phase-synchronized protocol: time is divided
into bit periods of ``1/bandwidth`` seconds; at the start of each period
the trojan either creates conflicts (to signal the bit) or stays idle, and
the spy measures the resource during the period's *active window*. The
paper's threat model assumes the pair has already synchronized (channel
setup/confirmation is why real channels take minutes for short messages),
which the shared bit clock models.

At low bandwidths the trojan does not stretch its conflicts over the whole
multi-second bit period — it emits the burst of conflicts needed to signal
reliably and then goes dormant (the behaviour the paper highlights when
discussing 0.1 bps channels and finer observation windows). The burst
length is ``min(bit_period, max_active_cycles)``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ChannelError
from repro.sim.engine import Priority
from repro.sim.machine import Machine
from repro.sim.process import Process
from repro.util.bitstream import Message, bit_error_rate


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters shared by every covert channel implementation."""

    message: Message
    bandwidth_bps: float = 10.0
    #: Cap on the conflict-generating part of a bit period (cycles).
    #: ``None`` uses the channel's own default: contention channels hold
    #: the resource for up to 100 M cycles (40 ms) per bit, the cache
    #: channel's sweep/probe rounds burst for up to 25 M cycles.
    max_active_cycles: Optional[int] = None
    #: Cycle at which bit 0's period starts (post-synchronization).
    start_time: int = 0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ChannelError(
                f"bandwidth must be positive, got {self.bandwidth_bps}"
            )
        if self.max_active_cycles is not None and self.max_active_cycles <= 0:
            raise ChannelError("max_active_cycles must be positive")
        if self.start_time < 0:
            raise ChannelError("start_time cannot be negative")


class CovertChannel:
    """Base class wiring a trojan/spy pair onto a machine.

    Subclasses implement :meth:`_trojan_body` and :meth:`_spy_body` as
    process generators and may use :meth:`bit_start` / :attr:`active_cycles`
    for phase timing. Call :meth:`deploy` to place both processes.
    """

    #: Subclass override: human-readable channel name.
    name = "covert-channel"
    #: Subclass override: default cap on the active part of a bit period.
    default_active_cap = 100_000_000

    def __init__(self, machine: Machine, config: ChannelConfig):
        self._machine_ref = weakref.ref(machine)
        self.config = config
        self.bit_period = machine.clock.cycles_per_bit(config.bandwidth_bps)
        cap = config.max_active_cycles or self.default_active_cap
        self.active_cycles = min(self.bit_period, cap)
        self.decoded_bits: List[int] = []
        self.trojan: Optional[Process] = None
        self.spy: Optional[Process] = None

    # ------------------------------------------------------------- protocol

    @property
    def machine(self) -> Machine:
        """The machine the channel runs on, held weakly: the machine's
        engine holds the channel's process bodies."""
        return self._machine_ref()

    @property
    def message(self) -> Message:
        return self.config.message

    def bit_start(self, index: int) -> int:
        """Cycle at which bit ``index``'s period begins."""
        if index < 0:
            raise ChannelError(f"bit index cannot be negative: {index}")
        return self.config.start_time + index * self.bit_period

    @property
    def transmission_end(self) -> int:
        """Cycle at which the last bit period ends."""
        return self.bit_start(len(self.message))

    def quanta_needed(self) -> int:
        """OS quanta required to cover the whole transmission."""
        return -(-self.transmission_end // self.machine.quantum_cycles)

    # --------------------------------------------------------------- deploy

    def _trojan_body(self, proc: Process):
        raise NotImplementedError

    def _spy_body(self, proc: Process):
        raise NotImplementedError

    def deploy(
        self,
        trojan_ctx: Optional[int] = None,
        spy_ctx: Optional[int] = None,
        core: Optional[int] = None,
    ) -> None:
        """Spawn the trojan (producer) and spy (consumer) processes.

        Pass ``core`` to co-locate both as hyperthreads of one core (the
        divider and cache channels need SMT co-residency / cache sharing);
        pass explicit contexts for full control. The trojan runs at
        producer priority so its per-bit conflicts are committed before the
        spy samples the same bit window.
        """
        if self.trojan is not None:
            raise ChannelError(f"{self.name} is already deployed")
        self.trojan = Process(
            f"{self.name}.trojan", body=self._trojan_body,
            priority=Priority.PRODUCER,
        )
        self.spy = Process(
            f"{self.name}.spy", body=self._spy_body, priority=Priority.CONSUMER
        )
        self.machine.spawn(self.trojan, ctx=trojan_ctx, core=core)
        self.machine.spawn(self.spy, ctx=spy_ctx, core=core)

    # ------------------------------------------------------------- results

    @property
    def trojan_ctx(self) -> int:
        if self.trojan is None or self.trojan.ctx is None:
            raise ChannelError(f"{self.name} is not deployed")
        return self.trojan.ctx

    @property
    def spy_ctx(self) -> int:
        if self.spy is None or self.spy.ctx is None:
            raise ChannelError(f"{self.name} is not deployed")
        return self.spy.ctx

    def bit_error_rate(self) -> float:
        """BER of what the spy decoded against the transmitted message."""
        return bit_error_rate(tuple(self.message), self.decoded_bits)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(bw={self.config.bandwidth_bps} bps, "
            f"bits={len(self.message)})"
        )
