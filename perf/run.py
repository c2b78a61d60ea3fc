"""Steady-state benchmark of the CC-Hunter reproduction.

    python3 perf/run.py [--workload W] [--seed S] [--seconds T]
                        [--trace [0|1]] [--repeat N] [--smoke]

Runs each workload (all four without ``--workload``) in a fresh Python
process, prints every metric by name with its unit, checks the outputs,
and ends with one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

Untraced runs report the end-to-end metrics; ``--trace 1`` runs report
the per-layer ones instead. ``--repeat N`` runs everything N times with
seeds S, S+1, ..., alternating the workload order, and prints each
metric's median and quartiles. The exit status is 1 when any check
fails: a verdict or simulated statistic that differs from
``perf/golden.json`` (seeds 1 and 2), a wrong ground-truth verdict, a
served observation that is not accounted for, or a traced run that does
not reproduce the untraced one. ``--write-golden`` records the golden
outputs from the current source tree.

See perf/README.md for the workloads, metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from percentiles import percentile, quartiles, tail
from workloads import DEFAULT_SECONDS, SERVE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PY = os.path.join(HERE, "workloads.py")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: Extra fresh processes per run that only measure set-up time.
SETUP_PROBES = 6
SMOKE_SECONDS = 2
GOLDEN_SEEDS = (1, 2)
#: Seconds a workload process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("sim_rtf", "s/s"),
    ("quantum_ms_p50", "ms"),
    ("quantum_ms_p90", "ms"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.resources.bus.self_s", "s"),
    ("sim.resources.bus.calls", "count"),
    ("sim.resources.bus.locks", "count"),
    ("sim.resources.divider.self_s", "s"),
    ("sim.resources.divider.calls", "count"),
    ("sim.resources.cache.self_s", "s"),
    ("sim.resources.cache.accesses", "count"),
    ("sim.resources.cache.miss_ratio", "ratio"),
    ("hardware.conflict_tracker.self_s", "s"),
    ("hardware.conflict_tracker.candidates", "count"),
    ("hardware.conflict_tracker.conflict_yield", "ratio"),
    ("hardware.bloom.self_s", "s"),
    ("hardware.bloom.keys", "count"),
    ("hardware.auditor.self_s", "s"),
    ("hardware.auditor.windows", "count"),
    ("pipeline.source.self_s", "s"),
    ("pipeline.analyzers.burst.push_s", "s"),
    ("pipeline.analyzers.oscillation.push_s", "s"),
    ("pipeline.session.push_s", "s"),
    ("pipeline.session.verdict_s", "s"),
    ("pipeline.session.verdict_calls", "count"),
    ("serve.wire.decode_s", "s"),
    ("serve.wire.encode_s", "s"),
    ("serve.wire.frames", "count"),
    ("serve.fold_s", "s"),
    ("serve.slo_s", "s"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.lost", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.credit_wait_ms_p99", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead", "ratio"),
)

#: The traced run must attribute at least this share of its time.
MIN_ATTRIBUTED = 0.90


class BenchError(Exception):
    """A workload process failed; no result can be reported."""


def child_env():
    env = dict(os.environ)
    # One process, one thread: numpy's BLAS must not fan out.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload, seed, seconds, trace=0, smoke=False, setup_only=False):
    """Run ``workloads.py`` in a fresh process; returns its JSON result."""
    args = [sys.executable, WORKLOADS_PY, workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    if setup_only:
        args.append("--setup-only")
    args += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            args, capture_output=True, text=True, env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} exceeded {CHILD_TIMEOUT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def end_to_end(result, setups):
    """End-to-end metric values plus notes on how each was taken.

    In-process host times are divided, quantum by quantum, by the host's
    slowdown factor (``hostspeed.py``), and every set-up time by the
    factor sampled right after it. Served latencies arrive divided
    already (``workloads.py``); the server's CPU time is divided by the
    run's median factor.
    """
    quantum, verdict = result["quantum_ms"], result["verdict_ms"]
    if result["workload"] == SERVE:
        sim_rtf = result["sim_s"] * result["host_factor"] / result["cpu_s"]
    else:
        factors = result["quantum_factor"]
        quantum = [q / f for q, f in zip(quantum, factors)]
        verdict = [v / f for v, f in zip(verdict, factors)]
        sim_rtf = 100.0 * len(quantum) / sum(quantum)
    notes = {"sim_rtf": f"host slowdown {result['host_factor']:.3f}"}
    q90, q90_used, n_q = tail(quantum, 90)
    v99, v99_used, n_v = tail(verdict, 99)
    values = {
        "sim_rtf": sim_rtf,
        "quantum_ms_p50": percentile(quantum, 50),
        "quantum_ms_p90": q90,
        "verdict_ms_p50": percentile(verdict, 50),
        "verdict_ms_p99": v99,
        "setup_s": statistics.median(s / f for s, f in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes.update({
        "quantum_ms_p50": f"n={n_q}",
        "quantum_ms_p90": f"p{q90_used:.4g}, n={n_q}",
        "verdict_ms_p50": f"n={n_v}",
        "verdict_ms_p99": f"p{v99_used:.4g}, n={n_v}",
        "setup_s": f"median of {len(setups)} processes",
    })
    return values, notes


def per_layer(result):
    layers = result["layers"]
    return {name: float(layers.get(name, 0.0)) for name, _unit in PER_LAYER}


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def golden_view(result):
    """The outputs pinned for seeds 1 and 2: first repetition only."""
    view = []
    for s in result["sessions"]:
        if s.get("rep", 0) != 0:
            continue
        entry = {"label": s["label"], "seed": s["seed"],
                 "verdicts": s.get("verdicts"), "error": s.get("error")}
        if "sim" in s:
            entry["sim"] = s["sim"]
        else:
            entry.update(n_obs=s["attempted"], received=s["received"],
                         shed=s["shed"], lost=s["lost"])
        view.append(entry)
    return json.loads(json.dumps(view))


def load_golden():
    try:
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check(result, profile, golden):
    """``(problems, attempted, failed)`` for one workload result."""
    problems = []
    sessions = result["sessions"]
    wrong = [s["label"] for s in sessions if not s["ok"]]
    if wrong:
        problems.append(f"wrong or failed verdicts: {', '.join(wrong)}")
    if result["workload"] == SERVE:
        attempted = sum(s["attempted"] for s in sessions)
        failed = sum(s["shed"] + s["lost"] for s in sessions)
        for s in sessions:
            accounted = s["received"] + s["shed"] + s["lost"]
            if accounted != s["attempted"]:
                failed += abs(s["attempted"] - accounted)
                problems.append(
                    f"tenant {s['label']}: attempted {s['attempted']} != "
                    f"folded {s['received']} + shed {s['shed']} "
                    f"+ lost {s['lost']}"
                )
    else:
        attempted = len(sessions)
        failed = len(wrong)
    expected = golden.get(profile, {}).get(result["workload"], {}).get(
        str(result["seed"])
    )
    if expected is not None:
        view = golden_view(result)
        # A served run of another length is not comparable.
        comparable = result["workload"] != SERVE or [
            e["n_obs"] for e in expected
        ] == [e["n_obs"] for e in view]
        if comparable and view != expected:
            problems.append("outputs differ from perf/golden.json")
    if "fidelity_ok" in result:
        if not result["fidelity_ok"]:
            problems.append("traced run changed verdicts or statistics")
        attributed = result["layers"]["trace.attributed_frac"]
        # The server's remainder is the asyncio runtime, no layer of ours.
        if result["workload"] != SERVE and attributed < MIN_ATTRIBUTED:
            problems.append(
                f"traced run attributed only {attributed:.1%} of its time"
            )
    return problems, attempted, failed


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, smoke, golden, out):
    """One workload: probes, the measured process, checks, metrics."""
    profile = "smoke" if smoke else "full"
    result = spawn(workload, seed, seconds, trace, smoke)
    problems, attempted, failed = check(result, profile, golden)
    if trace:
        values, notes = per_layer(result), {}
        units = dict(PER_LAYER)
        if result.get("missing_targets"):
            notes["trace.attributed_frac"] = (
                "not wrapped: " + ", ".join(result["missing_targets"])
            )
    else:
        probes = 1 if smoke else SETUP_PROBES
        setups = [(result["setup_s"], result["setup_factor"])] + [
            (probe["setup_s"], probe["setup_factor"])
            for probe in (
                spawn(workload, seed, seconds, smoke=smoke, setup_only=True)
                for _ in range(probes)
            )
        ]
        values, notes = end_to_end(result, setups)
        units = dict(END_TO_END)
    print(f"{workload}  seed {seed}  ({'traced' if trace else 'untraced'}"
          f", {attempted} attempted, {failed} failed)", file=out)
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:14.6g} {units[name]}{note}", file=out)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", file=out)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "units": units,
    }


def summarize(runs, out):
    """Median and quartiles per workload and metric over repeated runs."""
    table = {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs", file=out)
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}", file=out)
        for name in results[0]["metrics"]:
            series = [r["metrics"][name] for r in results]
            q1, med, q3 = quartiles(series)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<42} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%}", file=out)
            table[(workload, name)] = med
    return table


def write_golden():
    """Record ``perf/golden.json`` from the current source tree."""
    golden = {}
    for profile, seconds in (("full", DEFAULT_SECONDS), ("smoke", SMOKE_SECONDS)):
        for workload in WORKLOADS:
            for seed in GOLDEN_SEEDS:
                result = spawn(workload, seed, seconds, smoke=profile == "smoke")
                if not all(s["ok"] for s in result["sessions"]):
                    raise BenchError(
                        f"{workload} seed {seed} gives wrong verdicts; "
                        "golden outputs not written"
                    )
                golden.setdefault(profile, {}).setdefault(workload, {})[
                    str(seed)
                ] = golden_view(result)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default "
                        f"{DEFAULT_SECONDS}; {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes (self-test)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record perf/golden.json for seeds 1 and 2")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(os.path.dirname(HERE), "src", "repro")):
        parser.error("run from a checkout: src/repro is missing")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    workloads = tuple(args.workload or WORKLOADS)
    golden = load_golden()
    runs = {w: [] for w in workloads}
    try:
        if args.write_golden:
            write_golden()
            return 0
        for r in range(args.repeat):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for workload in order:
                runs[workload].append(run_workload(
                    workload, args.seed + r, seconds, args.trace, args.smoke,
                    golden, sys.stdout,
                ))
                sys.stdout.flush()
    except BenchError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2
    results = [r for rs in runs.values() for r in rs]
    if args.repeat > 1:
        table = summarize(runs, sys.stdout)
    else:
        table = {(w, n): v for w, rs in runs.items()
                 for n, v in rs[0]["metrics"].items()}
    single = len(workloads) == 1
    units = {(w, n): rs[0]["units"][n] for w, rs in runs.items()
             for n in rs[0]["units"]}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{workload}:{name}"): {
                "value": value, "unit": units[(workload, name)],
            }
            for (workload, name), value in table.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
