"""The benchmark's workloads; one invocation runs one workload.

    python3 perf/workloads.py WORKLOAD --seed S --seconds T [--trace 0|1]
        [--smoke] [--setup-only] [--spawned-at MONOTONIC_SECONDS]

``perf/run.py`` starts this script in a fresh process per workload, so
every run pays its own imports and starts with cold caches. The last line
of standard output is one JSON object of raw measurements, which the
runner turns into metrics and checks. ``serve-server`` is the server half
of ``serve-steady``; the load generator starts it. The generator reads
the server's CPU clock from ``/proc``, so ``serve-steady`` needs Linux.

Every input is derived from ``--seed``: covert messages, machine seeds and
tenant traffic come from :func:`session_seed`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
import zlib
from time import perf_counter

from hostspeed import HostSpeed, probe
from layers import QuantumClock, SetupDone, Tracer
from percentiles import tail

#: The program under test is the checkout's own source tree.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: Simulated seconds per OS quantum (``MachineConfig.os_quantum_seconds``);
#: one serve observation stands for one quantum as well.
QUANTUM_S = 0.1
#: Covert sender bandwidth of every covert session (bits per second).
BANDWIDTH_BPS = 10.0
#: Total offered serve load, both tenants together (observations/second):
#: about a third of what the server folds on one core. At twice this rate
#: the server's queues amplified every slowdown of the shared host, and
#: verdict latency followed the neighbours' load rather than the program.
SERVE_RATE = 150.0
#: Share of 1 bits in membus-long messages. A quantum carrying a 1 costs
#: 10-40x one carrying a 0 (the spy re-sorts the whole bus-lock history
#: after each burst), so with uniformly random messages the median quantum
#: sits on the boundary between the two modes and jumps with each seed's
#: bit count. A fixed count puts the median inside the 0 mode and the
#: 90th percentile inside the 1 mode, for every seed.
MEMBUS_ONES = 0.4

#: Per-repetition session plans. A plan is repeated, with fresh seeds,
#: while another repetition still fits in ``--seconds``.
PLANS = {
    "full": {
        "membus-long": {"sessions": 1, "quanta": 600},
        "cache-noisy": {"sessions": 5, "quanta": 32},
        "benign-mix": {"quanta": 48},
    },
    "smoke": {
        "membus-long": {"sessions": 1, "quanta": 24},
        "cache-noisy": {"sessions": 1, "quanta": 12},
        "benign-mix": {"quanta": 4},
    },
}
SERVE = "serve-steady"
WORKLOADS = ("membus-long", "cache-noisy", "benign-mix", SERVE)
#: Measured seconds per run (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 15


def session_seed(seed, workload, rep, index):
    """A stable per-session seed derived from the run's ``--seed``."""
    return zlib.crc32(f"{workload}:{seed}:{rep}:{index}".encode()) & 0x7FFFFFFF


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verdict_fields(verdict):
    def number(value):
        return None if value is None else float(value)

    return {
        "unit": verdict.unit,
        "detected": bool(verdict.detected),
        "lr": number(verdict.max_likelihood_ratio),
        "recurrent": (
            None if verdict.recurrent is None else bool(verdict.recurrent)
        ),
        "max_peak": number(verdict.max_peak),
    }


# --------------------------------------------------------------------------
# in-process workloads
# --------------------------------------------------------------------------


def _message(n_bits, seed, ones):
    """A random message; with ``ones`` set, exactly that share of 1 bits."""
    import numpy as np
    from repro.util.bitstream import Message

    if ones is None:
        return Message.random(n_bits, seed)
    bits = np.zeros(n_bits, dtype=int)
    rng = np.random.default_rng(seed)
    bits[rng.choice(n_bits, round(ones * n_bits), replace=False)] = 1
    return Message.from_bits(bits)


def _covert_session(kind, n_bits, seed, noise, ones=None, **channel_kwargs):
    """One covert session, driven as ``repro detect`` drives it."""
    from repro.analysis.figures import run_channel_session

    run = run_channel_session(
        kind,
        _message(n_bits, seed, ones),
        bandwidth_bps=BANDWIDTH_BPS,
        seed=seed,
        noise=noise,
        track_detection_latency=True,
        **channel_kwargs,
    )
    report = run.hunter.session.close()
    return [verdict_fields(v) for v in report.verdicts]


def _benign_session(pair, n_quanta, seed):
    """One benign pair under full audit, as ``repro false-alarms`` runs it."""
    from repro.analysis.figures import fig14_false_alarms

    result = fig14_false_alarms(
        pairs=[pair], seed=seed, n_quanta=n_quanta, jobs=1
    )[0]
    return [
        {"unit": "membus", "detected": bool(result.bus_detected),
         "lr": float(result.bus_lr)},
        {"unit": "divider(core 0)", "detected": bool(result.divider_detected),
         "lr": float(result.divider_lr)},
        {"unit": "cache", "detected": bool(result.cache_detected),
         "max_peak": float(result.cache_max_peak)},
    ]


def _plan(workload, profile):
    """``[(label, expect_detected, thunk(seed))]`` for one repetition."""
    size = PLANS[profile][workload]
    if workload == "membus-long":
        return [
            ("membus", True,
             lambda s: _covert_session(
                "membus", size["quanta"], s, False, ones=MEMBUS_ONES))
        ] * size["sessions"]
    if workload == "cache-noisy":
        return [
            ("cache", True,
             lambda s: _covert_session(
                 "cache", size["quanta"], s, True, n_sets_total=256))
        ] * size["sessions"]
    from repro.analysis.figures import default_benign_pairs

    return [
        ("+".join((a.name, b.name)), False,
         lambda s, pair=(a, b): _benign_session(pair, size["quanta"], s))
        for a, b in default_benign_pairs()
    ]


def _run_repetition(workload, plan, seed, rep, clock):
    sessions = []
    for index, (label, expect, thunk) in enumerate(plan):
        s = session_seed(seed, workload, rep, index)
        record = {"rep": rep, "index": index, "label": label, "seed": s,
                  "expect_detected": expect}
        n_sim = len(clock.sim)
        t0 = perf_counter()
        try:
            record["verdicts"] = thunk(s)
        except Exception as exc:  # reported as a failed session
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["wall_s"] = perf_counter() - t0
        record["sim"] = clock.sim[n_sim:]
        record["ok"] = "error" not in record and expect == any(
            v["detected"] for v in record["verdicts"]
        )
        sessions.append(record)
    return sessions


def _wall_s(sessions):
    return sum(r["wall_s"] for r in sessions)


def _sum_sim(sessions, key):
    return sum(sim[key] for r in sessions for sim in r["sim"])


def _inprocess_layers(tracer, sessions, traced_wall_s, untraced_wall_s):
    v = tracer.value
    accesses = _sum_sim(sessions, "cache_hits") + _sum_sim(
        sessions, "cache_misses"
    )
    candidates = v("hardware.conflict_tracker", "candidates")
    return {
        "sim.engine.self_s": v("sim.engine"),
        "sim.engine.events": _sum_sim(sessions, "events"),
        "sim.resources.bus.self_s": v("sim.resources.bus"),
        "sim.resources.bus.calls": v("sim.resources.bus", "calls"),
        "sim.resources.bus.locks": _sum_sim(sessions, "bus_locks"),
        "sim.resources.divider.self_s": v("sim.resources.divider"),
        "sim.resources.divider.calls": v("sim.resources.divider", "calls"),
        "sim.resources.cache.self_s": v("sim.resources.cache"),
        "sim.resources.cache.accesses": accesses,
        "sim.resources.cache.miss_ratio": (
            _sum_sim(sessions, "cache_misses") / accesses if accesses else 0.0
        ),
        "hardware.conflict_tracker.self_s": v("hardware.conflict_tracker"),
        "hardware.conflict_tracker.candidates": candidates,
        "hardware.conflict_tracker.conflict_yield": (
            v("hardware.conflict_tracker", "conflicts") / candidates
            if candidates else 0.0
        ),
        "hardware.bloom.self_s": v("hardware.bloom"),
        "hardware.bloom.keys": v("hardware.bloom", "keys"),
        "hardware.auditor.self_s": v("hardware.auditor"),
        "hardware.auditor.windows": v("hardware.auditor", "windows"),
        "pipeline.source.self_s": v("pipeline.source"),
        "pipeline.analyzers.burst.push_s": v("pipeline.analyzers.burst"),
        "pipeline.analyzers.oscillation.push_s": v(
            "pipeline.analyzers.oscillation"
        ),
        "pipeline.session.push_s": v("pipeline.session.push"),
        "pipeline.session.verdict_s": v("pipeline.session.verdict"),
        "pipeline.session.verdict_calls": v("pipeline.session.verdict", "calls"),
        "trace.attributed_frac": tracer.attributed_s() / traced_wall_s,
        "trace.overhead": untraced_wall_s / traced_wall_s,
    }


def _strip(sessions):
    """What a traced run must reproduce exactly."""
    return [
        (r["label"], r["seed"], r.get("verdicts"), r["sim"], r.get("error"))
        for r in sessions
    ]


def run_in_process(args):
    profile = "smoke" if args.smoke else "full"
    host = None if args.trace else HostSpeed()
    clock = QuantumClock(setup_probe=args.setup_only, host=host).install()
    try:
        plan = _plan(args.workload, profile)
        if args.setup_only:
            try:
                plan[0][2](session_seed(args.seed, args.workload, 0, 0))
            except SetupDone:
                pass
            return {"setup_s": clock.first_quantum_at - args.spawned_at,
                    "setup_factor": probe()}
        started = perf_counter()
        sessions = _run_repetition(args.workload, plan, args.seed, 0, clock)
        if args.trace:
            tracer = clock.tracer = Tracer().install()
            try:
                traced_sessions = _run_repetition(
                    args.workload, plan, args.seed, 0, clock
                )
            finally:
                tracer.restore()
                clock.tracer = None
            return {
                "sessions": sessions,
                "fidelity_ok": _strip(sessions) == _strip(traced_sessions),
                "missing_targets": tracer.missing,
                "layers": _inprocess_layers(
                    tracer, traced_sessions, _wall_s(traced_sessions),
                    _wall_s(sessions),
                ),
            }
        reps = 1
        # Repeat while one more repetition of the average length still
        # ends within --seconds (smoke runs do one).
        while (
            not args.smoke
            and (perf_counter() - started) * (reps + 1) / reps <= args.seconds
        ):
            sessions += _run_repetition(
                args.workload, plan, args.seed, reps, clock
            )
            reps += 1
        host.sample()
        return {
            "sessions": sessions,
            "quantum_ms": [1e3 * s for s in clock.quantum_s],
            "verdict_ms": [1e3 * s for s in clock.verdict_s],
            "quantum_factor": [host.at(t) for t in clock.quantum_at],
            "host_factor": host.median(),
            "setup_s": clock.first_quantum_at - args.spawned_at,
            # Sampled at the first quantum boundary, just after set-up.
            "setup_factor": host.factors[0],
            "peak_rss_mb": maxrss_mb(),
        }
    finally:
        clock.restore()


# --------------------------------------------------------------------------
# serve-steady: load generator + server process
# --------------------------------------------------------------------------


class ServerClock:
    """The server process's CPU clock, read from the generator.

    ``stamp()`` pairs the server's time on CPU (``/proc/PID/schedstat``,
    which leaves out time the hypervisor gave to other guests) with the
    generator's ``perf_counter()``; ``at(t)`` interpolates between the
    stamps. The generator stamps before every send and at every verdict
    frame, a few milliseconds apart.
    """

    def __init__(self, pid):
        self.path = f"/proc/{pid}/schedstat"
        self.wall = []
        self.cpu = []

    def stamp(self):
        with open(self.path) as handle:
            cpu = int(handle.read().split()[0]) / 1e9
        now = perf_counter()
        self.wall.append(now)
        self.cpu.append(cpu)
        return now, cpu

    def at(self, t):
        import numpy as np

        return float(np.interp(t, self.wall, self.cpu))


async def _feed(client, observations, start, period, clock, host=None):
    """Open loop: send observation ``i`` at ``start + i * period``.

    Returns per-observation lag (how late the send began) and time
    blocked inside ``send`` (credit wait plus socket write). Every send
    begins with a ``clock`` stamp (:class:`ServerClock`). With a
    ``host`` (:class:`hostspeed.HostSpeed`), the host's speed is sampled
    right after a send when a sample is due, the point farthest from the
    next send of either tenant.
    """
    lag, blocked = [], []
    for i, obs in enumerate(observations):
        due = start + i * period
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent, _cpu = clock.stamp()
        lag.append(sent - due)
        await client.send(obs)
        done = perf_counter()
        blocked.append(done - sent)
        if host is not None and host.due(done):
            host.sample()
    return lag, blocked


async def _stop_server(server):
    """Ask the server to drain and report; kill it if it will not."""
    out = b""
    try:
        if server.returncode is None:
            server.stdin.write(b"stop\n")
            await server.stdin.drain()
            server.stdin.close()
        out = await asyncio.wait_for(server.stdout.read(), 60)
        await asyncio.wait_for(server.wait(), 30)
    except (asyncio.TimeoutError, ConnectionError):
        pass
    finally:
        if server.returncode is None:
            server.kill()
            await server.wait()
    lines = out.decode().strip().splitlines()
    if server.returncode != 0 or not lines:
        raise RuntimeError(f"serve-server exited with {server.returncode}")
    return json.loads(lines[-1])


def _verdict_latencies(arrivals, start, period, n_obs, cpu_at, factor):
    """Verdict and per-observation latencies from due times, in ms.

    ``arrivals`` are ``(quantum named by the frame, arrival time, server
    CPU clock at arrival)``; ``cpu_at(t)`` is the server's CPU clock at
    generator time ``t`` and ``factor(t)`` the host's slowdown then. A
    verdict's latency is the server's CPU time from the due time of the
    observation it names to its arrival, divided by the slowdown.
    An observation counts as covered by the first frame naming it or a
    later one; its latency is that frame's plus the wait, fixed by the
    send schedule, for the frame's observation to fall due. The tail
    after the last frame has no latency.
    """
    verdict_ms, quantum_ms = [], []
    i = 0
    for q, t, cpu in arrivals:
        due = start + q * period
        verdict = 1e3 * (cpu - cpu_at(due)) / factor(t)
        verdict_ms.append(verdict)
        while i <= min(q, n_obs - 1):
            quantum_ms.append(1e3 * (due - (start + i * period)) + verdict)
            i += 1
    return verdict_ms, quantum_ms


TENANTS = ("covert", "benign")


async def _serve_pass(args, traced):
    """One server process, two tenants, one open-loop run."""
    from repro.serve import ServeClient, ServeConfig
    from repro.serve.traffic import (
        CHANNELS,
        benign_observations,
        covert_observations,
    )

    server = await asyncio.create_subprocess_exec(
        sys.executable, os.path.abspath(__file__), "serve-server",
        "--trace", str(int(traced)),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
    )
    clock = ServerClock(server.pid)
    clients = {}
    arrivals = {name: [] for name in TENANTS}
    try:
        line = await asyncio.wait_for(server.stdout.readline(), 120)
        port = json.loads(line)["port"]
        for name in TENANTS:
            client = ServeClient(
                "127.0.0.1", port,
                on_verdict=lambda frame, sink=arrivals[name]: sink.append(
                    (frame.quantum, *clock.stamp())
                ),
                # A trace id makes the server record queue-wait spans.
                trace_id=f"perf-{name}" if traced else None,
            )
            await client.connect(name, CHANNELS)
            clients[name] = client
        setup_s = time.monotonic() - args.spawned_at
        setup_factor = probe()
        if args.setup_only:
            for client in clients.values():
                await client.finish(timeout=60)
            return {"setup_s": setup_s, "setup_factor": setup_factor}
        n_obs = max(1, int(round(SERVE_RATE / len(TENANTS) * args.seconds)))
        seeds = {
            name: session_seed(args.seed, SERVE, 0, index)
            for index, name in enumerate(TENANTS)
        }
        streams = {
            "covert": list(covert_observations(n_obs, seed=seeds["covert"])),
            "benign": list(benign_observations(n_obs, seed=seeds["benign"])),
        }
        # Each tenant sends every ``period``; the two interleave evenly,
        # and so do their verdict batches. Lined up, one tenant's batch
        # waited behind the other's verdict evaluation every time, and
        # the pooled median sat between the two tenants' latency modes.
        period = len(TENANTS) / SERVE_RATE
        batch = ServeConfig().verdict_every
        # One probe loop per sample: the generator must not block across
        # a send. It samples after the first tenant's sends only.
        host = HostSpeed(repeats=1)
        host.sample()
        start = perf_counter() + 0.05
        starts = {name: start + k * period * (1 + batch) / len(TENANTS)
                  for k, name in enumerate(TENANTS)}
        feeds = await asyncio.gather(*(
            _feed(clients[name], streams[name], starts[name], period, clock,
                  host=host if k == 0 else None)
            for k, name in enumerate(TENANTS)
        ))
        goodbyes = {
            name: await client.finish(timeout=60)
            for name, client in clients.items()
        }
    finally:
        for client in clients.values():
            await client.aclose()
        report = await _stop_server(server)
    verdict_ms, quantum_ms, tenants = [], [], []
    for name in TENANTS:
        v_ms, q_ms = _verdict_latencies(
            arrivals[name], starts[name], period, n_obs, clock.at, host.at
        )
        verdict_ms += v_ms
        quantum_ms += q_ms
        stats = report["tenants"][name]
        expect = name == "covert"
        verdicts = [verdict_fields(v) for v in goodbyes[name].report.verdicts]
        tenants.append({
            "label": name,
            "seed": seeds[name],
            "expect_detected": expect,
            "attempted": n_obs,
            **stats,
            "verdicts": verdicts,
            "ok": any(v["detected"] for v in verdicts) == expect,
        })
    return {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "server": report,
        "sessions": tenants,
        "verdict_ms": verdict_ms,
        "quantum_ms": quantum_ms,
        "host_factor": host.median(),
        "lag_ms": [1e3 * x for lag, _ in feeds for x in lag],
        "blocked_ms": [1e3 * x for _, blocked in feeds for x in blocked],
        "sim_s": QUANTUM_S * sum(t["received"] for t in tenants),
    }


def _tenant_totals(sessions, key):
    return sum(t[key] for t in sessions)


async def run_serve(args):
    first = await _serve_pass(args, traced=False)
    if args.setup_only:
        return first
    if not args.trace:
        return {
            **first,
            "cpu_s": first["server"]["cpu_s"],
            "peak_rss_mb": first["server"]["maxrss_mb"],
        }
    traced = await _serve_pass(args, traced=True)
    sessions = traced["sessions"]
    layers = traced["server"]["layers"]
    layers.update({
        "trace.overhead": first["server"]["cpu_s"] / traced["server"]["cpu_s"],
        "serve.coalesced": _tenant_totals(sessions, "coalesced"),
        "serve.shed": _tenant_totals(sessions, "shed"),
        "serve.lost": _tenant_totals(sessions, "lost"),
        "loadgen.lag_ms_p99": tail(traced["lag_ms"], 99)[0],
        "loadgen.credit_wait_ms_p99": tail(traced["blocked_ms"], 99)[0],
    })

    def strip(run):
        return [(t["label"], t["seed"], t["verdicts"], t["received"])
                for t in run["sessions"]]

    return {
        "sessions": first["sessions"],
        "fidelity_ok": strip(first) == strip(traced),
        "missing_targets": traced["server"]["missing_targets"],
        "layers": layers,
    }


async def serve_forever(args):
    """The server process: start, report the port, serve until told."""
    from repro.serve import DetectionService, ServeConfig

    tracer = recorder = None
    if args.trace:
        from repro.obs.tracing import enable_tracing

        recorder = enable_tracing(capacity=1 << 20)
        tracer = Tracer().install()
    service = DetectionService(ServeConfig())
    _host, port = await service.start()
    cpu0 = time.process_time()
    print(json.dumps({"port": port}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    stats = await service.stop()
    cpu_s = time.process_time() - cpu0
    out = {
        "cpu_s": cpu_s,
        "maxrss_mb": maxrss_mb(),
        "tenants": {
            name: {"received": s.received, "shed": s.shed, "lost": s.lost,
                   "coalesced": s.coalesced}
            for name, s in stats.items()
        },
        "missing_targets": tracer.missing if tracer else [],
    }
    if tracer is not None:
        tracer.restore()
        spans = recorder.spans()

        def total(name):
            return sum(s.duration for s in spans if s.name == name)

        queue_ms = [1e3 * s.duration for s in spans
                    if s.name == "serve.queue_wait"]
        value = tracer.value
        wire_s = value("serve.wire.decode") + value("serve.wire.encode")
        out["layers"] = {
            "serve.wire.decode_s": value("serve.wire.decode"),
            "serve.wire.encode_s": value("serve.wire.encode"),
            "serve.wire.frames": value("serve.wire.decode", "calls")
            + value("serve.wire.encode", "calls"),
            "serve.fold_s": total("serve.fold"),
            "serve.slo_s": value("serve.slo"),
            "serve.queue_wait_ms_p99": (
                tail(queue_ms, 99)[0] if queue_ms else 0.0
            ),
            "pipeline.analyzers.burst.push_s": value(
                "pipeline.analyzers.burst"
            ),
            "pipeline.session.push_s": value("pipeline.session.push"),
            "pipeline.session.verdict_s": value("pipeline.session.verdict"),
            "pipeline.session.verdict_calls": value(
                "pipeline.session.verdict", "calls"
            ),
            # Busy time is CPU time: the server idles between arrivals.
            "trace.attributed_frac": (
                wire_s + value("serve.slo") + total("serve.fold")
                + total("serve.analyze")
            ) / cpu_s,
        }
    print(json.dumps(out), flush=True)


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS + ("serve-server",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started us")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        parser.error(f"repro imported from {repro.__file__}, not {SRC}")
    if args.workload == "serve-server":
        asyncio.run(serve_forever(args))
        return 0
    if args.workload == SERVE:
        result = asyncio.run(run_serve(args))
    else:
        result = run_in_process(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
