#!/usr/bin/env python
"""Streaming audit: watch CC-Hunter's verdict evolve as quanta arrive.

The detection pipeline is incremental — every analyzer folds each OS
quantum's observation into bounded running state, so verdicts are
available *during* the run, not only from the terminal ``report()``.
This example attaches a live printer to a memory-bus covert session.
A session with a sink evaluates a verdict at every quantum and records
the quantum at which the channel first becomes detectable; the example
prints that record next to the end-of-run report. Run with::

    python examples/streaming_audit.py
"""

from repro import (
    AuditUnit,
    CCHunter,
    ChannelConfig,
    Machine,
    MemoryBusCovertChannel,
    Message,
    background_noise_processes,
)
from repro.pipeline import StreamPrinterSink


def main() -> None:
    machine = Machine(seed=77)

    # The sink prints a one-line verdict update as each quantum completes.
    hunter = CCHunter(machine, sinks=[StreamPrinterSink()])
    hunter.audit(AuditUnit.MEMORY_BUS)

    secret = Message.random(48, rng=5)
    channel = MemoryBusCovertChannel(
        machine, ChannelConfig(message=secret, bandwidth_bps=50.0)
    )
    channel.deploy(trojan_ctx=0, spy_ctx=2)

    quanta = channel.quanta_needed()
    background_noise_processes(
        machine, n_quanta=quanta, avoid_contexts=(0, 2), seed=77
    )

    print(f"streaming {quanta} OS quanta (verdict updates below)...")
    machine.run_quanta(quanta)

    first = hunter.session.first_detection_quantum("membus")
    print()
    if first is None:
        print("the channel was never flagged during the run")
    else:
        print(
            f"first detection: quantum {first} "
            f"({(first + 1) * machine.config.os_quantum_seconds:.1f} s into "
            f"a {quanta * machine.config.os_quantum_seconds:.1f} s session"
            " — no need to wait for the end-of-run report)"
        )

    print("\nend-of-run report for comparison:")
    print(hunter.report().render())


if __name__ == "__main__":
    main()
