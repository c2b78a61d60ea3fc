"""CC-Hunter reproduction: covert timing channel detection on shared hardware.

A faithful, pure-Python reproduction of *CC-Hunter: Uncovering Covert
Timing Channels on Shared Processor Hardware* (Chen & Venkataramani,
MICRO 2014): the detection framework itself, a discrete-event model of the
shared-hardware machine it audits, the three covert channels the paper
evaluates against, the CC-auditor hardware, and the benign workloads of
the false-alarm study.

Quickstart::

    from repro import (
        AuditUnit, CCHunter, ChannelConfig, Machine, MemoryBusCovertChannel,
        Message, background_noise_processes,
    )

    machine = Machine(seed=1)
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.MEMORY_BUS)

    channel = MemoryBusCovertChannel(
        machine, ChannelConfig(message=Message.random_credit_card(1))
    )
    channel.deploy(trojan_ctx=0, spy_ctx=2)
    background_noise_processes(
        machine, n_quanta=8, avoid_contexts=(0, 2)
    )
    machine.run_quanta(8)
    print(hunter.report().render())
"""

from repro.channels import (
    CacheCovertChannel,
    ChannelConfig,
    CovertChannel,
    DividerCovertChannel,
    MemoryBusCovertChannel,
    MultiplierCovertChannel,
)
from repro.config import (
    AuditorConfig,
    BusConfig,
    CacheConfig,
    DividerConfig,
    MachineConfig,
)
from repro.core import (
    AuditUnit,
    CCHunter,
    DetectionReport,
    UnitVerdict,
    analyze_autocorrelogram,
    analyze_histogram,
)
from repro.errors import ReproError
from repro.exec import TrialRunner, TrialSpec
from repro.hardware import (
    BloomFilter,
    CCAuditor,
    GenerationConflictTracker,
    IdealLRUConflictTracker,
    estimate_auditor_costs,
)
from repro.mitigation import (
    apply_bus_lock_throttle,
    apply_clock_fuzzing,
    partition_cache_ways,
)
from repro.sim import Machine
from repro.util import Message, bit_error_rate
from repro.workloads import WORKLOADS, background_noise_processes

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "MachineConfig",
    "CacheConfig",
    "BusConfig",
    "DividerConfig",
    "AuditorConfig",
    # simulation
    "Machine",
    # detection
    "AuditUnit",
    "CCHunter",
    "DetectionReport",
    "UnitVerdict",
    "analyze_autocorrelogram",
    "analyze_histogram",
    # hardware
    "BloomFilter",
    "CCAuditor",
    "GenerationConflictTracker",
    "IdealLRUConflictTracker",
    "estimate_auditor_costs",
    # channels
    "ChannelConfig",
    "CovertChannel",
    "MemoryBusCovertChannel",
    "DividerCovertChannel",
    "CacheCovertChannel",
    "MultiplierCovertChannel",
    # mitigation
    "apply_bus_lock_throttle",
    "apply_clock_fuzzing",
    "partition_cache_ways",
    # workloads
    "WORKLOADS",
    "background_noise_processes",
    # parallel execution
    "TrialRunner",
    "TrialSpec",
    # utilities
    "Message",
    "bit_error_rate",
    "ReproError",
]
