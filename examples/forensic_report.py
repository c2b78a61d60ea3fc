#!/usr/bin/env python
"""Forensic provenance: capture evidence, sample metrics, render a report.

A verdict is an accusation; this example shows the paper trail behind
one. It runs a memory-bus covert channel under audit with
``capture_evidence=True``, samples the metrics registry after every OS
quantum, then produces the three forensic artifacts the CLI's
``--evidence-out`` / ``--timeseries-out`` / ``--report-out`` flags
write (docs/FORENSICS.md):

- an evidence document — per-unit LR trajectories, density-histogram
  snapshots frozen at threshold crossings, cluster assignments, and
  the verdict timeline, all round-trippable through JSON;
- a metrics time-series JSONL — the registry's trajectory, one flat
  sample per quantum;
- a self-contained HTML forensic report rendering both (plus the
  Markdown flavor, excerpted below).

Run with::

    python examples/forensic_report.py
"""

import tempfile
from pathlib import Path

from repro import (
    AuditUnit,
    CCHunter,
    ChannelConfig,
    Machine,
    MemoryBusCovertChannel,
    Message,
)
from repro.config import LIKELIHOOD_RATIO_THRESHOLD
from repro.obs.evidence import load_evidence, write_evidence
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    MetricsSampler,
    load_jsonl,
    series_keys,
    series_values,
)
from repro.report import render_report


def main() -> None:
    reg = MetricsRegistry()
    machine = Machine(seed=11, metrics=reg)
    hunter = CCHunter(
        machine,
        track_detection_latency=True,
        metrics=reg,
        capture_evidence=True,  # strictly read-only: same verdicts
    )
    hunter.audit(AuditUnit.MEMORY_BUS)

    secret = Message.random(24, rng=9)
    channel = MemoryBusCovertChannel(
        machine, ChannelConfig(message=secret, bandwidth_bps=100.0)
    )
    channel.deploy(trojan_ctx=0, spy_ctx=2)

    sampler = MetricsSampler(registry=reg, every_quanta=1, source="example")
    machine.on_quantum_end(
        lambda quantum, t0, t1: sampler.maybe_sample(quantum=quantum)
    )

    quanta = channel.quanta_needed()
    print(f"auditing {quanta} OS quanta with evidence capture on...")
    machine.run_quanta(quanta)
    report = hunter.session.close()
    sampler.sample(label="close")

    # --- artifact 1: the evidence document (what --evidence-out writes)
    bundles = hunter.session.evidence()
    for unit, bundle in bundles.items():
        d = bundle.to_dict()
        print(
            f"  [{unit}] {len(d['lr_trajectory'])} LR points, "
            f"{len(d['histogram_snapshots'])} histogram snapshots, "
            f"{len(d['verdict_timeline'])} verdict flips"
        )

    with tempfile.TemporaryDirectory() as tmp:
        evidence_path = Path(tmp) / "evidence.json"
        series_path = Path(tmp) / "metrics.jsonl"
        meta = {
            "command": "examples/forensic_report.py",
            "channel": "membus",
            "seed": 11,
            "lr_threshold": LIKELIHOOD_RATIO_THRESHOLD,
            "report": report.to_dict(),
        }
        meta["report"]["verdicts"] = [
            {k: v for k, v in verdict.items() if k != "evidence"}
            for verdict in meta["report"]["verdicts"]
        ]
        write_evidence(evidence_path, bundles, meta=meta)

        # --- artifact 2: the time series (what --timeseries-out writes)
        n = sampler.write_jsonl(series_path)
        _header, records = load_jsonl(series_path)
        print(f"\n{n} metric samples; {len(series_keys(records))} series. "
              "Bus-lock events over time:")
        points = series_values(
            [r for r in records if r.get("quantum") is not None],
            'cchunter_source_channel_events_total{channel="membus"}',
        )
        for x, value in points[:: max(1, len(points) // 6)]:
            bar = "#" * int(40 * value / max(v for _, v in points))
            print(f"  q{int(x):3d} {int(value):7d} {bar}")

        # --- artifact 3: the report (what --report-out / `repro report`
        # write). HTML is self-contained; Markdown suits terminals.
        doc = load_evidence(evidence_path)  # exact round-trip
        html = render_report(doc, "html", timeseries=records)
        out = Path("forensic_report.html")
        out.write_text(html)
        print(f"\nself-contained HTML report -> {out} "
              f"({len(html) / 1024:.0f} KiB, zero external requests)")

        md = render_report(doc, "md")
        head = md.splitlines()[:14]
        print("\nMarkdown flavor, first lines:\n")
        print("\n".join(f"  {line}" for line in head))


if __name__ == "__main__":
    main()
