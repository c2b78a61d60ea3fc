"""Command-line interface: run the reproduction's experiments directly.

Usage::

    python -m repro table1
    python -m repro detect --channel membus --bandwidth 10 --bits 32
    python -m repro false-alarms
    python -m repro figure 6

``detect`` runs a covert session under audit and prints the channel's
decode result, CC-Hunter's report, and the TCSEC bandwidth assessment;
with ``--stream`` it prints the pipeline's per-quantum verdict updates
as the session runs, and with ``--json`` it emits a machine-readable
report for downstream consumers. ``figure N`` regenerates a paper figure
at bench scale.

The global ``--jobs N`` flag fans the sweep commands (``figure 10-14``,
``false-alarms``) out over N worker processes through
``repro.exec.TrialRunner`` (``--jobs 0`` uses every CPU). Results are
bit-identical to a serial run — see docs/PERFORMANCE.md.

Observability surface: every command starts from a fresh metrics
registry; ``detect``/``analyze`` accept ``--metrics-out metrics.json``
(JSON snapshot of all counters/gauges/histograms), ``detect`` accepts
``--trace-out trace.json`` (opt-in spans, Chrome-trace format), both
accept ``--profile-out profile.json`` (per-stage wall/CPU attribution,
``repro.obs.profile/v1``), and ``repro metrics metrics.json`` /
``repro profile profile.json`` re-render the snapshots (Prometheus
text; top-N self-time table, collapsed stacks, or speedscope JSON).
``--log-level``/``--log-json`` configure the structured ``repro.*``
loggers.

Performance surface (docs/PERFORMANCE.md): ``repro bench check`` runs
the registered ``benchmarks/bench_*.py`` suites and gates the fresh
numbers against the committed ``BENCH_*.json`` baselines; an
out-of-tolerance metric exits with the dedicated regression code (8).
``repro bench run`` measures without gating and ``repro bench history``
lists the appended ``benchmarks/history.jsonl`` trajectory.

Robustness surface (docs/ROBUSTNESS.md): ``detect``/``analyze`` accept
``--inject 'drop:0.1,stall:0.05:3@membus'`` fault-injection specs,
``analyze`` accepts ``--skip-corrupt`` to degrade around damaged
archive records instead of aborting, and the sweep commands accept
``--trial-timeout SECONDS`` to record (rather than die on) stuck
trials. Every failure mode maps to a documented exit code — see
:mod:`repro.errors` for the taxonomy.

Serving surface (docs/SERVING.md): ``repro serve`` runs the
multi-tenant detection service until SIGINT (graceful drain, per-tenant
summary, exit 0); ``repro stream`` points a synthetic tenant at it —
``--profile covert|benign``, ``--inject 'drop:0.2'`` for a lossy
transport — and exits 3 if the final report detects a channel, 9 if
the service is unreachable or refuses admission. With ``repro serve
--admin-port`` the service exposes its live telemetry plane
(docs/OBSERVABILITY.md), and ``repro top`` renders the tenant fleet
against it, sorted by SLO burn rate (exit 9 when unreachable).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import figures as fig
from repro.analysis.ascii_plot import (
    render_correlogram,
    render_histogram,
    render_series,
)
from repro.analysis.capacity import assess_channel
from repro.analysis.tables import table1_text
from repro.config import LIKELIHOOD_RATIO_THRESHOLD
from repro.obs import (
    configure_logging,
    disable_tracing,
    enable_tracing,
    get_default,
    load_snapshot,
    new_default,
    render_prometheus,
)
from repro.util.bitstream import Message


def _cmd_table1(_args) -> int:
    print(table1_text())
    return 0


def _build_injectors(args):
    """Parse the --inject spec (if any) into an injector chain."""
    text = getattr(args, "inject", None)
    if not text:
        return ()
    from repro.faults import injectors_from_string

    return injectors_from_string(text, seed=getattr(args, "seed", 0))


def _report_trial_failures(results) -> List:
    """Print recorded TrialFailure slots; return the usable results."""
    from repro.exec import TrialFailure

    usable = []
    for result in results:
        if isinstance(result, TrialFailure):
            print(
                f"repro: trial {result.index} {result.kind}: "
                f"{result.message}",
                file=sys.stderr,
            )
        else:
            usable.append(result)
    return usable


def _write_obs_artifacts(args, recorder=None, profiler=None) -> None:
    """Persist the run's metrics snapshot / span trace / stage profile."""
    if getattr(args, "metrics_out", None):
        get_default().write_json(args.metrics_out)
        print(
            f"metrics snapshot written to {args.metrics_out}",
            file=sys.stderr,
        )
    if recorder is not None:
        recorder.write_chrome_trace(args.trace_out)
        disable_tracing()
        print(
            f"chrome trace ({len(recorder.spans())} spans) written to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    if profiler is not None:
        from repro.obs.profile import disable_profiling

        doc = profiler.write_json(args.profile_out)
        disable_profiling()
        print(
            f"stage profile ({doc['spans']} spans, "
            f"{len(doc['stages'])} stages) written to {args.profile_out}; "
            "render with `repro profile`",
            file=sys.stderr,
        )


def _report_format_for(path: Optional[str], explicit: Optional[str]) -> str:
    """Report format: explicit flag wins, else the output extension."""
    if explicit:
        return explicit
    if path and path.endswith((".md", ".markdown")):
        return "md"
    return "html"


def _meta_report(report) -> dict:
    """Report dict for evidence metadata, without nested evidence."""
    payload = report.to_dict()
    for verdict in payload.get("verdicts", ()):
        verdict.pop("evidence", None)
    return payload


def _write_forensics(args, bundles, meta, sampler=None) -> None:
    """Persist evidence / forensic report / time series, if requested.

    ``bundles`` maps unit → EvidenceBundle or serialized bundle dict;
    ``meta`` is the run context embedded in the evidence document (and
    shown by the report renderer).
    """
    timeseries_out = getattr(args, "timeseries_out", None)
    if sampler is not None and timeseries_out:
        sampler.write_jsonl(timeseries_out)
        print(
            f"metrics time series ({len(sampler)} samples) written to "
            f"{timeseries_out}",
            file=sys.stderr,
        )
    evidence_out = getattr(args, "evidence_out", None)
    report_out = getattr(args, "report_out", None)
    if not (evidence_out or report_out):
        return
    from repro.obs.evidence import evidence_document, write_evidence

    if evidence_out:
        doc = write_evidence(evidence_out, bundles, meta)
        print(
            f"evidence bundles ({len(doc['units'])} units) written to "
            f"{evidence_out}",
            file=sys.stderr,
        )
    else:
        doc = evidence_document(bundles, meta)
    if report_out:
        from repro.report import render_report

        fmt = _report_format_for(report_out, None)
        records = sampler.records() if sampler is not None else None
        text = render_report(doc, fmt, timeseries=records)
        with open(report_out, "w") as handle:
            handle.write(text)
        print(
            f"forensic report ({fmt}) written to {report_out}",
            file=sys.stderr,
        )


def _cmd_detect(args) -> int:
    from repro.pipeline import StreamPrinterSink, TimeseriesSink

    message = Message.random(args.bits, args.seed)
    kwargs = {}
    if args.channel == "cache":
        kwargs["n_sets_total"] = args.cache_sets
    sinks = []
    if args.stream:
        sinks.append(StreamPrinterSink(jsonl=args.as_json))
    if args.watch:
        from repro.report import WatchSink

        sinks.append(WatchSink())
    sampler = None
    if args.timeseries_out:
        from repro.obs import MetricsSampler

        sampler = MetricsSampler(source="detect")
        sinks.append(TimeseriesSink(sampler))
    wants_evidence = bool(args.evidence_out or args.report_out)
    recorder = enable_tracing() if args.trace_out else None
    profiler = None
    if args.profile_out:
        from repro.obs.profile import enable_profiling

        profiler = enable_profiling()
    run = fig.run_channel_session(
        args.channel,
        message,
        bandwidth_bps=args.bandwidth,
        seed=args.seed,
        noise=not args.no_noise,
        sinks=sinks,
        track_detection_latency=True,
        injectors=_build_injectors(args),
        capture_evidence=wants_evidence,
        **kwargs,
    )
    ber = run.ber
    # close() rather than report(): the watch / time-series sinks rely
    # on the on_close event for their final frame and sample. With no
    # sinks attached this is equivalent to report().
    report = run.hunter.session.close()
    assessment = assess_channel(args.bandwidth, ber)
    first_detection = {
        unit: run.hunter.session.first_detection_quantum(unit)
        for unit in run.hunter.session.units
    }

    def _forensics() -> None:
        if not (wants_evidence or sampler is not None):
            return
        _write_forensics(
            args,
            run.hunter.evidence(),
            meta={
                "command": "detect",
                "channel": args.channel,
                "bandwidth_bps": float(args.bandwidth),
                "bits": int(args.bits),
                "seed": int(args.seed),
                "quanta": int(run.quanta),
                "bit_error_rate": float(ber),
                "lr_threshold": LIKELIHOOD_RATIO_THRESHOLD,
                "report": _meta_report(report),
            },
            sampler=sampler,
        )

    if args.as_json:
        payload = {
            "channel": args.channel,
            "bandwidth_bps": args.bandwidth,
            "bits": args.bits,
            "quanta": run.quanta,
            "bit_error_rate": float(ber),
            "effective_bandwidth_bps": float(
                assessment.effective_bandwidth_bps
            ),
            "tcsec_class": assessment.tcsec_class.value,
            "first_detection_quantum": first_detection,
            "report": _meta_report(report),
        }
        print(json.dumps(payload, sort_keys=True))
        _forensics()
        _write_obs_artifacts(args, recorder, profiler)
        return 0
    print(
        f"channel: {args.channel} @ {args.bandwidth:g} bps, "
        f"{args.bits} bits over {run.quanta} quanta"
    )
    print(f"spy bit error rate: {ber:.3f}")
    print(assessment.summary())
    if args.stream:
        for unit, quantum in first_detection.items():
            when = "never detected" if quantum is None else f"quantum {quantum}"
            print(f"first detection [{unit}]: {when}")
    print()
    print(report.render())
    _forensics()
    _write_obs_artifacts(args, recorder, profiler)
    return 0


def _cmd_false_alarms(args) -> int:
    from repro.errors import EXIT_TRIAL_FAILURE

    raw = fig.fig14_false_alarms(
        seed=args.seed, n_quanta=args.quanta, jobs=args.jobs,
        timeout_s=getattr(args, "trial_timeout", None),
    )
    results = _report_trial_failures(raw)
    alarms = 0
    for r in results:
        alarms += r.any_alarm
        print(
            f"{'+'.join(r.pair):<24} bus LR {r.bus_lr:.3f} | divider LR "
            f"{r.divider_lr:.3f} | cache peak {r.cache_max_peak:.2f} | "
            f"{'ALARM' if r.any_alarm else 'clear'}"
        )
    print(f"\nfalse alarms: {alarms} of {len(results)}")
    _write_obs_artifacts(args)
    if len(results) != len(raw):
        return EXIT_TRIAL_FAILURE
    return 1 if alarms else 0


def _cmd_figure(args) -> int:
    n = args.number
    timeout_s = getattr(args, "trial_timeout", None)
    if n == 2:
        r = fig.fig2_membus_latency(seed=args.seed)
        print(render_series(r.latencies, title="Figure 2: bus spy latency"))
        print(f"BER {r.ber:.3f}, separation {r.separation:.0f} cycles")
    elif n == 3:
        r = fig.fig3_divider_latency(seed=args.seed)
        print(render_series(r.latencies, title="Figure 3: divider latency"))
        print(f"BER {r.ber:.3f}")
    elif n == 6:
        r = fig.fig6_density_histograms(seed=args.seed)
        print(render_histogram(r.bus_hist, title="Figure 6a: bus"))
        print(f"burst bin #{r.bus_burst_bin}, "
              f"LR {r.bus_analysis.likelihood_ratio:.3f}")
        print(render_histogram(r.divider_hist, title="Figure 6b: divider",
                               max_bins=128))
        print(f"burst bin #{r.divider_burst_bin}, "
              f"LR {r.divider_analysis.likelihood_ratio:.3f}")
    elif n == 7:
        r = fig.fig7_cache_ratios(seed=args.seed)
        print(render_series(r.ratios, title="Figure 7: G1/G0 ratios"))
        print(f"BER {r.ber:.3f}")
    elif n == 8:
        r = fig.fig8_cache_autocorrelogram(seed=args.seed)
        print(render_correlogram(
            r.acf, title="Figure 8: cache autocorrelogram",
            marker_lags=r.analysis.peak_lags.tolist(),
        ))
        print(f"peak {r.peak_value:.3f} at lag {r.peak_lag}")
    elif n == 10:
        for p in _report_trial_failures(fig.fig10_bandwidth_sweep(
            seed=args.seed, jobs=args.jobs, timeout_s=timeout_s,
        )):
            signal = (
                f"LR {p.likelihood_ratio:.3f}" if p.likelihood_ratio is not None
                else f"ACF peak {p.max_peak:.3f}"
            )
            print(f"{p.kind:<8} @ {p.bandwidth_bps:>7g} bps: {signal} | "
                  f"{'DETECTED' if p.detected else 'missed'}")
    elif n == 11:
        for p in _report_trial_failures(fig.fig11_window_scaling(
            seed=args.seed, jobs=args.jobs, timeout_s=timeout_s,
        )):
            print(f"window x{p.fraction:<5g}: best peak {p.best_peak:.3f}, "
                  f"{p.significant_windows}/{p.windows_analyzed} windows "
                  "significant")
    elif n == 12:
        for r in fig.fig12_message_sweep(
            seed=args.seed, jobs=args.jobs, timeout_s=timeout_s,
        ):
            if r.likelihood_ratios:
                print(f"{r.kind:<8}: min LR over messages "
                      f"{r.min_likelihood_ratio:.3f} (paper: > 0.9)")
            else:
                peaks = r.cache_peaks
                print(f"{r.kind:<8}: ACF peaks "
                      f"{min(peaks):.3f}..{max(peaks):.3f}")
    elif n == 13:
        for r in _report_trial_failures(fig.fig13_cache_set_sweep(
            seed=args.seed, jobs=args.jobs, timeout_s=timeout_s,
        )):
            print(f"{r.n_sets} sets: peak {r.peak_value:.3f} at lag "
                  f"{r.peak_lag}")
    elif n == 14:
        return _cmd_false_alarms(
            argparse.Namespace(
                seed=args.seed, quanta=8, jobs=args.jobs,
                trial_timeout=timeout_s,
                metrics_out=getattr(args, "metrics_out", None),
            )
        )
    else:
        print(
            f"figure {n} not wired to the CLI; see benchmarks/ for the "
            "full set",
            file=sys.stderr,
        )
        return 2
    _write_obs_artifacts(args)
    return 0


def _cmd_record(args) -> int:
    from repro.traces import export_traces

    message = Message.random(args.bits, args.seed)
    run = fig.run_channel_session(
        args.channel, message, bandwidth_bps=args.bandwidth, seed=args.seed
    )
    archive = export_traces(run.machine, args.path)
    print(
        f"recorded {archive.n_quanta} quanta to {args.path}: "
        f"{archive.bus_lock_times.size} bus locks, "
        f"{archive.cache_times.size} conflict misses"
    )
    return 0


def _cmd_analyze(args) -> int:
    from repro.pipeline import MetricsSink
    from repro.traces import analyze_traces, load_traces

    archive = load_traces(
        args.path,
        on_corruption="skip" if args.skip_corrupt else "raise",
    )
    for unit in archive.gaps:
        print(
            f"repro: warning: corrupt records skipped for unit "
            f"'{unit}'; its verdict is degraded",
            file=sys.stderr,
        )
    # --metrics-out (and the forensic outputs) turn the replayed session
    # eager (MetricsSink + first-detection tracking) so the artifacts
    # carry the same per-quantum latency, detection metrics, and verdict
    # timelines a live session would.
    wants_evidence = bool(args.evidence_out or args.report_out)
    wants_metrics = bool(args.metrics_out) or wants_evidence
    sinks = [MetricsSink()] if wants_metrics else []
    sampler = None
    if args.timeseries_out:
        from repro.obs import MetricsSampler
        from repro.pipeline import TimeseriesSink

        sampler = MetricsSampler(source="analyze")
        sinks.append(TimeseriesSink(sampler))
    profiler = None
    if args.profile_out:
        from repro.obs.profile import enable_profiling

        profiler = enable_profiling()
    report = analyze_traces(
        archive,
        window_fraction=args.window_fraction,
        sinks=sinks,
        track_detection_latency=wants_metrics,
        injectors=_build_injectors(args),
        capture_evidence=wants_evidence,
    )
    if args.as_json:
        print(json.dumps(_meta_report(report), sort_keys=True))
    else:
        print(report.render())
    if wants_evidence or sampler is not None:
        bundles = {
            v.unit: v.evidence
            for v in report.verdicts
            if v.evidence is not None
        }
        _write_forensics(
            args,
            bundles,
            meta={
                "command": "analyze",
                "archive": args.path,
                "window_fraction": float(args.window_fraction),
                "report": _meta_report(report),
            },
            sampler=sampler,
        )
    _write_obs_artifacts(args, profiler=profiler)
    return 0 if not report.any_detected else 3


def _cmd_report(args) -> int:
    from repro.obs.evidence import load_evidence
    from repro.report import render_report

    doc = load_evidence(args.path)
    records = None
    if args.timeseries:
        from repro.obs.timeseries import load_jsonl

        _header, records = load_jsonl(args.timeseries)
    fmt = _report_format_for(args.out, args.format)
    text = render_report(doc, fmt, timeseries=records, title=args.title)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(
            f"forensic report ({fmt}) written to {args.out}",
            file=sys.stderr,
        )
    else:
        print(text, end="")
    return 0


def _cmd_metrics(args) -> int:
    snapshot = load_snapshot(args.path)
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import (
        load_profile,
        render_collapsed,
        render_top,
        to_speedscope,
    )

    doc = load_profile(args.path)
    if args.format == "collapsed":
        text = render_collapsed(doc)
    elif args.format == "speedscope":
        text = (
            json.dumps(to_speedscope(doc, name=args.path), sort_keys=True)
            + "\n"
        )
    else:
        text = render_top(doc, args.top)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(
            f"profile rendering ({args.format}) written to {args.out}",
            file=sys.stderr,
        )
    else:
        print(text, end="")
    return 0


def _bench_provenance():
    """Timestamp/revision/fingerprint for a bench run, computed here —
    the bench library never reads the wall clock itself."""
    from datetime import datetime, timezone

    from repro.bench import git_revision, machine_fingerprint

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_rev": git_revision(),
        "fingerprint": machine_fingerprint(),
    }


def _cmd_bench_check(args) -> int:
    from repro.bench import check_benches

    report = check_benches(
        args.names or None,
        baseline_dir=args.baseline_dir,
        benchmarks_dir=args.benchmarks_dir,
        quick=args.quick,
        history_path=None if args.no_history else args.history,
        **_bench_provenance(),
    )
    for bench in report["benches"]:
        for row in bench["rows"]:
            if row.get("skipped"):
                verdict = "skip (full run only)"
            elif row["kind"] == "bool":
                verdict = f"ok   {row['fresh']} (baseline {row['baseline']})"
            else:
                verdict = (
                    f"ok   {row['fresh']:.6g} vs baseline "
                    f"{row['baseline']:.6g} (bound {row['allowed']:.6g}, "
                    f"{row['direction']} is better)"
                )
            print(f"{row['bench']}.{row['metric']}: {verdict}")
    mode = "quick" if report["quick"] else "full"
    print(f"bench check ({mode}): all gated metrics within tolerance")
    return 0


def _cmd_bench_run(args) -> int:
    from repro.bench import append_history, bench_result, run_bench, suite_names

    provenance = _bench_provenance()
    names = args.names or suite_names()
    records = []
    for name in names:
        metrics = run_bench(name, args.benchmarks_dir, quick=args.quick)
        records.append(
            bench_result(
                name,
                metrics,
                timestamp=provenance["timestamp"],
                quick=args.quick,
                git_rev=provenance["git_rev"],
                fingerprint=provenance["fingerprint"],
            )
        )
        print(json.dumps(records[-1], sort_keys=True))
    if not args.no_history:
        count = append_history(args.history, records)
        print(
            f"{count} bench result(s) appended to {args.history}",
            file=sys.stderr,
        )
    return 0


def _cmd_bench_history(args) -> int:
    from repro.bench import load_history

    records = load_history(args.history)
    if args.name:
        records = [r for r in records if r.get("name") == args.name]
    for record in records:
        rev = record.get("git_rev") or "-"
        mode = "quick" if record.get("quick") else "full"
        print(
            f"{record.get('timestamp') or '-':<32} {record.get('name'):<16} "
            f"{mode:<5} {rev[:12]}"
        )
    print(f"{len(records)} run(s)", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    """Run the multi-tenant detection service until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.serve import DetectionService, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        queue_capacity=args.queue_capacity,
        initial_credits=args.initial_credits,
        verdict_every=args.verdict_every,
        max_tenants=args.max_tenants,
        max_resident_sessions=args.max_resident,
        idle_expiry=args.idle_expiry,
        drain_timeout=args.drain_timeout,
        admin_port=args.admin_port,
        alerts_out=args.alerts_out,
    )

    async def _main():
        service = DetectionService(config=config, metrics=get_default())
        host, port = await service.start()
        if config.admin_port is not None:
            # Same parseable-readiness convention as the serve line.
            print(
                f"repro serve: telemetry on {host}:{service.admin_port}",
                flush=True,
            )
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_requested.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        # Parseable readiness line: scripts read the bound port from it
        # (port 0 asks the OS for a free one).
        print(
            f"repro serve: listening on {host}:{port} "
            f"({config.shards} shards, max {config.max_tenants} tenants)",
            flush=True,
        )
        waiters = [asyncio.ensure_future(stop_requested.wait())]
        if args.duration is not None:
            waiters.append(
                asyncio.ensure_future(asyncio.sleep(args.duration))
            )
        serving = asyncio.ensure_future(service.serve_forever())
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()
            serving.cancel()
            print(
                "repro serve: draining and shutting down",
                file=sys.stderr,
                flush=True,
            )
            stats = await service.stop()
            await asyncio.gather(serving, return_exceptions=True)
        return stats

    stats = asyncio.run(_main())
    print(f"{len(stats)} tenant(s) served")
    for name in sorted(stats):
        row = stats[name]
        flag = "DETECTED" if row.any_detected else "clear"
        print(
            f"  {name:<20} folded={row.received:<6} shed={row.shed:<5} "
            f"lost={row.lost:<5} health={row.health:<8} {flag}"
        )
    if args.metrics_out:
        get_default().write_json(args.metrics_out)
        print(
            f"metrics snapshot written to {args.metrics_out}",
            file=sys.stderr,
        )
    return 0


def _cmd_stream(args) -> int:
    """Stream synthetic tenant traffic at a running detection service."""
    import asyncio

    from repro.errors import EXIT_DETECTED
    from repro.faults.wire import build_link
    from repro.serve import stream_tenant
    from repro.serve.traffic import CHANNELS, make_observations

    result = asyncio.run(
        stream_tenant(
            args.host,
            args.port,
            args.tenant,
            CHANNELS,
            make_observations(args.profile, args.quanta, seed=args.seed),
            link=build_link(args.inject, seed=args.seed),
            finish_timeout=args.finish_timeout,
        )
    )
    goodbye = result.goodbye
    print(
        f"tenant {args.tenant!r}: attempted {result.attempted}, "
        f"folded {goodbye.received}, shed {goodbye.shed}"
    )
    if args.as_json:
        print(json.dumps(goodbye.report.to_dict(), sort_keys=True))
    else:
        print(goodbye.report.render())
    return EXIT_DETECTED if goodbye.report.any_detected else 0


def _cmd_top(args) -> int:
    """Live tenant-fleet dashboard over the serve telemetry endpoint."""
    import asyncio

    from repro.report.top import run_top

    try:
        asyncio.run(
            run_top(
                args.host,
                args.port,
                interval=args.interval,
                iterations=args.iterations,
                stream=sys.stdout,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _add_jobs_flag(subparser: argparse.ArgumentParser) -> None:
    """Accept --jobs after the subcommand too; the global value is the
    fallback (SUPPRESS keeps the subparser from clobbering it)."""
    subparser.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS, metavar="N",
        help="worker processes for the sweep (1 = serial, 0 = all CPUs)",
    )
    subparser.add_argument(
        "--trial-timeout", type=float, default=argparse.SUPPRESS,
        metavar="SECONDS", dest="trial_timeout",
        help="per-trial wall-clock budget; stuck or crashing trials are "
        "recorded as failures instead of aborting the sweep "
        "(default: no timeout)",
    )


def _add_forensics_flags(subparser: argparse.ArgumentParser) -> None:
    """The evidence / report / time-series outputs (docs/FORENSICS.md)."""
    subparser.add_argument(
        "--evidence-out", metavar="PATH", dest="evidence_out",
        help="capture per-unit forensic evidence bundles and write the "
        "evidence document (JSON) to PATH",
    )
    subparser.add_argument(
        "--report-out", metavar="PATH", dest="report_out",
        help="render a self-contained forensic report to PATH "
        "(.md for Markdown, anything else HTML); implies evidence capture",
    )
    subparser.add_argument(
        "--timeseries-out", metavar="PATH", dest="timeseries_out",
        help="sample the metrics registry once per quantum and write the "
        "JSONL time series to PATH",
    )


_INJECT_HELP = (
    "comma-separated fault injection spec, e.g. "
    "'drop:0.1,stall:0.05:3@membus' — kinds: drop:P, dup:P, "
    "reorder:W, stall:P[:W], bitflip:P[:BITS], saturate:P; "
    "@CHANNEL targets one channel (default all). See docs/ROBUSTNESS.md"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CC-Hunter reproduction command line",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="threshold for the structured repro.* loggers",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of text",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep commands (default 1 = serial, "
        "0 = all CPUs); results are identical for every value",
    )
    parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        dest="trial_timeout",
        help="per-trial wall-clock budget for sweep commands; stuck or "
        "crashing trials are recorded as failures instead of aborting "
        "(default: no timeout)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(
        func=_cmd_table1
    )

    detect = sub.add_parser(
        "detect", help="run a covert channel under CC-Hunter audit"
    )
    detect.add_argument(
        "--channel",
        choices=("membus", "divider", "multiplier", "cache"),
        default="membus",
    )
    detect.add_argument("--bandwidth", type=float, default=10.0)
    detect.add_argument("--bits", type=int, default=32)
    detect.add_argument("--seed", type=int, default=1)
    detect.add_argument("--cache-sets", type=int, default=256)
    detect.add_argument(
        "--no-noise", action="store_true",
        help="disable the background interference processes",
    )
    detect.add_argument(
        "--stream", action="store_true",
        help="print per-quantum verdict updates while the session runs",
    )
    detect.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report (JSON lines with --stream)",
    )
    detect.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a JSON metrics snapshot of the run to PATH",
    )
    detect.add_argument(
        "--trace-out", metavar="PATH",
        help="record spans and write a Chrome-trace JSON file to PATH",
    )
    detect.add_argument(
        "--profile-out", metavar="PATH", dest="profile_out",
        help="attribute per-stage wall/CPU time and write the "
        "repro.obs.profile/v1 document to PATH (render with "
        "`repro profile`)",
    )
    detect.add_argument("--inject", metavar="SPEC", help=_INJECT_HELP)
    detect.add_argument(
        "--watch", action="store_true",
        help="show a live status block (redrawn in place on a TTY) "
        "while the session runs",
    )
    _add_forensics_flags(detect)
    detect.set_defaults(func=_cmd_detect)

    false_alarms = sub.add_parser(
        "false-alarms", help="run the Figure 14 benign-pair screen"
    )
    false_alarms.add_argument("--seed", type=int, default=9)
    false_alarms.add_argument("--quanta", type=int, default=8)
    false_alarms.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a JSON metrics snapshot of the sweep to PATH",
    )
    _add_jobs_flag(false_alarms)
    false_alarms.set_defaults(func=_cmd_false_alarms)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int)
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a JSON metrics snapshot of the figure run to PATH",
    )
    _add_jobs_flag(figure)
    figure.set_defaults(func=_cmd_figure)

    record = sub.add_parser(
        "record",
        help="run a covert session and export its indicator events",
    )
    record.add_argument("path", help="output .npz archive")
    record.add_argument(
        "--channel", choices=("membus", "divider", "multiplier", "cache"),
        default="membus",
    )
    record.add_argument("--bandwidth", type=float, default=100.0)
    record.add_argument("--bits", type=int, default=30)
    record.add_argument("--seed", type=int, default=1)
    record.set_defaults(func=_cmd_record)

    analyze = sub.add_parser(
        "analyze", help="run CC-Hunter offline over a trace archive"
    )
    analyze.add_argument("path", help=".npz archive from `record`")
    analyze.add_argument("--window-fraction", type=float, default=1.0)
    analyze.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as machine-readable JSON",
    )
    analyze.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a JSON metrics snapshot of the replay to PATH",
    )
    analyze.add_argument(
        "--profile-out", metavar="PATH", dest="profile_out",
        help="attribute per-stage wall/CPU time and write the "
        "repro.obs.profile/v1 document to PATH (render with "
        "`repro profile`)",
    )
    analyze.add_argument("--inject", metavar="SPEC", help=_INJECT_HELP)
    analyze.add_argument(
        "--seed", type=int, default=0,
        help="seed for the --inject fault streams",
    )
    analyze.add_argument(
        "--skip-corrupt", action="store_true",
        help="skip corrupt archive records (gap + degraded verdict) "
        "instead of exiting with the corrupt-archive code",
    )
    _add_forensics_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    report = sub.add_parser(
        "report",
        help="render an --evidence-out document as a forensic report",
    )
    report.add_argument("path", help="evidence.json from --evidence-out")
    report.add_argument(
        "--timeseries", metavar="PATH",
        help="JSONL metrics time series from --timeseries-out to embed",
    )
    report.add_argument(
        "--out", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    report.add_argument(
        "--format", choices=("html", "md"), default=None,
        help="output format (default: by --out extension, else html)",
    )
    report.add_argument(
        "--title", default="CC-Hunter forensic report",
        help="report title",
    )
    report.set_defaults(func=_cmd_report)

    metrics = sub.add_parser(
        "metrics",
        help="re-render a --metrics-out snapshot (Prometheus text or JSON)",
    )
    metrics.add_argument("path", help="metrics.json from --metrics-out")
    metrics.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="output format (default: Prometheus text exposition)",
    )
    metrics.set_defaults(func=_cmd_metrics)

    profile = sub.add_parser(
        "profile",
        help="render a --profile-out stage profile (table, collapsed "
        "stacks, or speedscope JSON)",
    )
    profile.add_argument("path", help="profile.json from --profile-out")
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows in the self-time table (default 15)",
    )
    profile.add_argument(
        "--format", choices=("table", "collapsed", "speedscope"),
        default="table",
        help="table: top-N self-time; collapsed: flamegraph.pl input; "
        "speedscope: JSON for https://speedscope.app (default table)",
    )
    profile.add_argument(
        "--out", metavar="PATH",
        help="write the rendering to PATH instead of stdout",
    )
    profile.set_defaults(func=_cmd_profile)

    bench = sub.add_parser(
        "bench",
        help="run the registered benchmarks and gate against the "
        "committed BENCH_*.json baselines (docs/PERFORMANCE.md)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    def _add_bench_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "names", nargs="*", metavar="NAME",
            help="benchmarks to run (default: the whole registered suite)",
        )
        p.add_argument(
            "--quick", action="store_true",
            help="low-trial smoke mode (REPRO_BENCH_QUICK): gates only "
            "metrics a 2-trial run can resolve",
        )
        p.add_argument(
            "--benchmarks-dir", default="benchmarks", metavar="DIR",
            dest="benchmarks_dir",
            help="directory holding bench_*.py modules (default: "
            "benchmarks/, i.e. run from the repo root)",
        )
        p.add_argument(
            "--history", default="benchmarks/history.jsonl", metavar="PATH",
            help="JSONL run-history file to append results to "
            "(default: benchmarks/history.jsonl)",
        )
        p.add_argument(
            "--no-history", action="store_true", dest="no_history",
            help="do not append this run to the history file",
        )

    bench_check = bench_sub.add_parser(
        "check",
        help="run benches and fail (exit 8) on any out-of-tolerance "
        "metric vs the committed baselines",
    )
    _add_bench_common(bench_check)
    bench_check.add_argument(
        "--baseline-dir", default=".", metavar="DIR", dest="baseline_dir",
        help="directory holding the committed BENCH_*.json baselines "
        "(default: the current directory, i.e. run from the repo root)",
    )
    bench_check.set_defaults(func=_cmd_bench_check)

    bench_run = bench_sub.add_parser(
        "run",
        help="run benches and print result documents without gating",
    )
    _add_bench_common(bench_run)
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_history = bench_sub.add_parser(
        "history", help="list the appended bench run history"
    )
    bench_history.add_argument(
        "--history", default="benchmarks/history.jsonl", metavar="PATH",
        help="JSONL run-history file (default: benchmarks/history.jsonl)",
    )
    bench_history.add_argument(
        "--name", metavar="NAME", help="only show runs of this benchmark"
    )
    bench_history.set_defaults(func=_cmd_bench_history)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant detection service until SIGINT "
        "(docs/SERVING.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (default: 0 = OS-assigned; the bound "
        "port is printed on the readiness line)",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="detection worker shards (default: 2)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64, dest="queue_capacity",
        help="per-tenant ingest queue depth; past it observations are "
        "hard-shed (default: 64)",
    )
    serve.add_argument(
        "--initial-credits", type=int, default=32, dest="initial_credits",
        help="per-tenant credit window granted at hello (default: 32)",
    )
    serve.add_argument(
        "--verdict-every", type=int, default=8, dest="verdict_every",
        help="push a verdict frame every N folded quanta (default: 8)",
    )
    serve.add_argument(
        "--max-tenants", type=int, default=64, dest="max_tenants",
        help="admission cap on distinct tenants (default: 64)",
    )
    serve.add_argument(
        "--max-resident", type=int, default=48, dest="max_resident",
        help="resident DetectionSession cap; disconnected tenants "
        "beyond it are LRU-evicted (default: 48)",
    )
    serve.add_argument(
        "--idle-expiry", type=float, default=30.0, dest="idle_expiry",
        help="seconds a disconnected tenant stays resident "
        "(default: 30)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, dest="drain_timeout",
        help="shutdown budget for folding queued observations before "
        "the rest are shed (default: 5)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for this long then shut down gracefully "
        "(default: until SIGINT/SIGTERM)",
    )
    serve.add_argument(
        "--metrics-out", metavar="PATH", dest="metrics_out",
        help="write the cchunter_serve_* metrics snapshot (JSON) to "
        "PATH at shutdown",
    )
    serve.add_argument(
        "--admin-port", type=int, default=None, dest="admin_port",
        metavar="PORT",
        help="serve the live telemetry plane (/metrics, /healthz, "
        "/readyz, /tenants, /profile) on this port (0 = OS-assigned; "
        "default: disabled) — docs/OBSERVABILITY.md",
    )
    serve.add_argument(
        "--alerts-out", metavar="PATH", dest="alerts_out",
        help="append fired SLO burn-rate alerts (repro.obs.alert/v1 "
        "JSONL) to PATH",
    )
    serve.set_defaults(func=_cmd_serve)

    stream = sub.add_parser(
        "stream",
        help="stream synthetic tenant traffic at a running service "
        "and print its final report (docs/SERVING.md)",
    )
    stream.add_argument(
        "--tenant", required=True, help="tenant name to stream as"
    )
    stream.add_argument(
        "--host", default="127.0.0.1",
        help="service host (default: 127.0.0.1)",
    )
    stream.add_argument(
        "--port", type=int, required=True, help="service port"
    )
    stream.add_argument(
        "--profile", default="covert", choices=("covert", "benign"),
        help="traffic profile (default: covert)",
    )
    stream.add_argument(
        "--quanta", type=int, default=40,
        help="observation quanta to stream (default: 40)",
    )
    stream.add_argument(
        "--seed", type=int, default=0,
        help="traffic and fault-injection seed (default: 0)",
    )
    stream.add_argument(
        "--inject", metavar="SPEC", default=None,
        help="frame-level fault spec, e.g. 'drop:0.2,stall:0.05:0.01,"
        "garbage:0.05' — emulates a lossy client (docs/ROBUSTNESS.md)",
    )
    stream.add_argument(
        "--finish-timeout", type=float, default=30.0,
        dest="finish_timeout",
        help="seconds to wait for the final goodbye report "
        "(default: 30)",
    )
    stream.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the final report as JSON instead of text",
    )
    stream.set_defaults(func=_cmd_stream)

    top = sub.add_parser(
        "top",
        help="live tenant-fleet dashboard polling a serve telemetry "
        "endpoint, sorted by SLO burn rate (docs/OBSERVABILITY.md)",
    )
    top.add_argument(
        "--host", default="127.0.0.1",
        help="telemetry endpoint host (default: 127.0.0.1)",
    )
    top.add_argument(
        "--port", type=int, required=True,
        help="telemetry endpoint port (repro serve --admin-port)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between polls (default: 1.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N polls (default: run until interrupted)",
    )
    top.set_defaults(func=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import exit_code_for

    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    # Each invocation gets a fresh default registry so --metrics-out
    # snapshots cover exactly this run.
    new_default()
    try:
        return args.func(args)
    except Exception as exc:
        # Every failure exits with a documented code (repro.errors) and
        # a one-line message — no tracebacks for operational errors.
        code = exit_code_for(exc)
        print(f"repro: error: {exc}", file=sys.stderr)
        if code == 7:  # INTERNAL: unexpected — keep the evidence
            import traceback

            traceback.print_exc()
        return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
