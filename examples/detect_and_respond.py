#!/usr/bin/env python
"""The full loop the paper advocates: detect first, then mitigate.

Phase 1 — a cache covert channel runs under CC-Hunter audit and is
detected (with the suspect context pair identified from the conflict
train). Phase 2 — the operator way-partitions the cache between the
suspects and replays the workload: the channel's conflict medium is gone
and its decode collapses, while CC-Hunter confirms silence. Run with::

    python examples/detect_and_respond.py
"""


from repro import (
    AuditUnit,
    CacheCovertChannel,
    CCHunter,
    ChannelConfig,
    Machine,
    Message,
    background_noise_processes,
)
from repro.core.event_train import dominant_pair_series
from repro.mitigation import partition_cache_ways


def run_phase(mitigate: bool, seed: int = 77):
    machine = Machine(seed=seed)
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.CACHE)

    secret = Message.random(16, rng=3)
    channel = CacheCovertChannel(
        machine,
        ChannelConfig(message=secret, bandwidth_bps=200.0),
        n_sets_total=128,
    )
    channel.deploy()
    if mitigate:
        partition_cache_ways(
            machine, suspect_contexts=(channel.trojan_ctx, channel.spy_ctx)
        )
    quanta = channel.quanta_needed()
    background_noise_processes(
        machine, n_quanta=quanta,
        avoid_contexts=(channel.trojan_ctx, channel.spy_ctx), seed=seed,
    )
    machine.run_quanta(quanta)
    return machine, hunter, channel


def main() -> None:
    print("=== phase 1: unprotected machine ===")
    machine, hunter, channel = run_phase(mitigate=False)
    verdict = hunter.report().verdicts[0]
    print(f"channel BER: {channel.bit_error_rate():.3f}")
    print(verdict.summary())

    horizon = machine.quanta_completed * machine.quantum_cycles
    _, reps, vics = machine.cache_miss_tap.window_reader().read(0, horizon)
    _, _, pair = dominant_pair_series(reps, vics)
    print(f"suspect context pair from the conflict train: {pair}")
    print(f"(ground truth: trojan ctx {channel.trojan_ctx}, "
          f"spy ctx {channel.spy_ctx})")

    print("\n=== phase 2: cache way-partitioned between the suspects ===")
    machine, hunter, channel = run_phase(mitigate=True)
    verdict = hunter.report().verdicts[0]
    print(f"channel BER: {channel.bit_error_rate():.3f} "
          "(decode destroyed)")
    print(verdict.summary())


if __name__ == "__main__":
    main()
