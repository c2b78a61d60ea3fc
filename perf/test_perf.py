"""Self-tests of the benchmark: ``python -m pytest perf -q``."""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import hostspeed
import layers
import run
import workloads
from percentiles import percentile, tail, tail_percentile_rank

HERE = os.path.dirname(os.path.abspath(__file__))


# --------------------------------------------------------------- percentiles


def test_tail_keeps_ten_samples_beyond_it():
    assert tail_percentile_rank(2000, 99) == 99.0
    assert tail_percentile_rank(1000, 99) == 99.0
    assert tail_percentile_rank(600, 99) == pytest.approx(100 * (1 - 10 / 600))
    assert tail_percentile_rank(160, 90) == 90.0
    assert tail_percentile_rank(50, 90) == 80.0


def test_tail_never_drops_below_the_median():
    assert tail_percentile_rank(12, 99) == 50.0
    assert tail_percentile_rank(1, 90) == 50.0


def test_tail_reports_percentile_used_and_count():
    # On 0..100 the p-th percentile is p itself.
    value, used, n = tail(list(range(101)), 99)
    assert used == pytest.approx(100 * (1 - 10 / 101)) and n == 101
    assert value == pytest.approx(used)
    value, used, n = tail(list(range(1001)), 99)
    assert (value, used, n) == (990.0, 99.0, 1001)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([10.0], 99) == 10.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------------------------------------------ tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers, "perf_counter", fake)
    return fake


def test_nested_calls_charge_only_self_time(clock):
    tracer = layers.Tracer()
    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

    def middle_body():
        clock.advance(1.0)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        clock.advance(0.5)
        middle()
        clock.advance(3.0)

    tracer.wrap("outer", outer_body)()
    assert tracer.value("leaf") == 4.0
    assert tracer.value("leaf", "calls") == 2
    assert tracer.value("middle") == 1.0
    assert tracer.value("outer") == 3.5
    assert tracer.attributed_s() == 8.5


def test_frames_take_the_remainder_and_unnamed_frames_drop_it(clock):
    tracer = layers.Tracer()
    engine = tracer.wrap("engine", lambda: clock.advance(5.0))
    tracer.begin()
    clock.advance(1.0)
    engine()
    tracer.end(layers.SOURCE_LAYER)
    tracer.begin()
    clock.advance(7.0)
    tracer.end(None)
    assert tracer.value(layers.SOURCE_LAYER) == 1.0
    assert tracer.value("engine") == 5.0
    assert tracer.attributed_s() == 6.0


def test_counters_see_arguments_and_result(clock):
    tracer = layers.Tracer()

    def count(counts, args, result):
        counts["items"] += len(args[0])
        counts["hits"] += result

    fn = tracer.wrap("layer", lambda items: sum(items), count)
    assert fn([1, 1, 0]) == 2
    fn([1])
    assert tracer.value("layer", "items") == 4
    assert tracer.value("layer", "hits") == 3


def test_install_patches_every_lookup_and_restore_undoes_it():
    provider = types.ModuleType("repro_perf_test_provider")
    provider.double = lambda x: 2 * x

    class Box:
        def get(self):
            return 7

    provider.Box = Box
    original_get = Box.__dict__["get"]
    user = types.ModuleType("repro_perf_test_user")
    user.double = provider.double
    original = provider.double
    sys.modules[provider.__name__] = provider
    sys.modules[user.__name__] = user
    try:
        tracer = layers.Tracer().install((
            ("fn", f"{provider.__name__}:double", None),
            ("method", f"{provider.__name__}:Box.get", None),
            ("gone", f"{provider.__name__}:missing", None),
        ))
        assert user.double(3) == 6 and provider.double(4) == 8
        assert Box().get() == 7
        assert tracer.value("fn", "calls") == 2
        assert tracer.value("method", "calls") == 1
        assert tracer.missing == [f"{provider.__name__}:missing"]
        tracer.restore()
        assert user.double is original and provider.double is original
        assert Box.__dict__["get"] is original_get
    finally:
        del sys.modules[provider.__name__], sys.modules[user.__name__]


# ---------------------------------------------------------- host speed


def test_host_speed_interpolates_between_samples():
    host = hostspeed.HostSpeed()
    assert host.due(0.0)
    host.times, host.factors = [10.0, 12.0], [1.0, 2.0]
    assert host.at(9.0) == 1.0
    assert host.at(11.5) == 1.75
    assert host.at(20.0) == 2.0
    assert host.median() == 1.5
    interval = hostspeed.INTERVAL_S
    assert not host.due(12.0 + interval / 2) and host.due(12.0 + 2 * interval)


def test_host_speed_probe_is_a_positive_factor():
    assert hostspeed.probe() > 0


# ------------------------------------------------------ open-loop latency


def _same(t):
    return t


def _one(t):
    return 1.0


def test_latency_counts_from_due_time_under_a_stalled_sender():
    # 10 ms period; the sender stalls, so observations 0..7 all leave at
    # 100 ms and the verdict naming observation 7 arrives at 105 ms. The
    # server is busy throughout: its CPU clock keeps up with the wall.
    period, start = 0.010, 0.0
    arrivals = [(7, 0.105, 0.105), (15, 0.160, 0.160)]
    verdict_ms, quantum_ms = workloads._verdict_latencies(
        arrivals, start, period, 20, _same, _one
    )
    assert verdict_ms == pytest.approx([35.0, 10.0])
    # Every observation up to the frame it is covered by, from its due
    # time; 16..19 are after the last frame and have no latency.
    assert len(quantum_ms) == 16
    assert quantum_ms[0] == pytest.approx(105.0)
    assert quantum_ms[7] == pytest.approx(35.0)
    assert quantum_ms[8] == pytest.approx(80.0)


def test_latency_is_server_cpu_time_over_the_slowdown_plus_the_batch_wait():
    # The server works half the time, on a host running 2x slow.
    period, start = 0.010, 0.0
    arrivals = [(7, 0.105, 0.0525)]
    verdict_ms, quantum_ms = workloads._verdict_latencies(
        arrivals, start, period, 8, lambda t: t / 2, lambda t: 2.0
    )
    assert verdict_ms == pytest.approx([8.75])
    # The 70 ms wait for observation 7 to fall due is the schedule's.
    assert quantum_ms[0] == pytest.approx(78.75)
    assert quantum_ms[7] == pytest.approx(8.75)


def test_server_clock_reads_a_process_cpu_clock():
    clock = workloads.ServerClock(os.getpid())
    wall0, cpu0 = clock.stamp()
    x = 0
    for i in range(200_000):
        x += i
    wall1, cpu1 = clock.stamp()
    assert wall1 > wall0 and cpu1 > cpu0
    assert clock.at((wall0 + wall1) / 2) == pytest.approx((cpu0 + cpu1) / 2)


def test_feed_keeps_its_schedule_after_a_stall():
    class StallingClient:
        def __init__(self):
            self.sent = 0

        async def send(self, obs):
            self.sent += 1
            if self.sent == 1:
                await asyncio.sleep(0.2)

    async def go():
        client = StallingClient()
        clock = types.SimpleNamespace(stamp=lambda: (time.perf_counter(), 0.0))
        start = time.perf_counter() + 0.01
        lag, blocked = await workloads._feed(
            client, range(30), start, 0.01, clock
        )
        return client, lag, blocked

    client, lag, blocked = asyncio.run(go())
    assert client.sent == 30
    assert blocked[0] >= 0.2
    # The sends queued behind the stall leave late, by less each time:
    # due times are never re-anchored to the stall.
    assert lag[1] >= 0.15 and lag[5] >= 0.1
    assert lag[1] > lag[5] > lag[10]


# -------------------------------------------------------------- end to end


def test_runner_matches_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_of_every_workload():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    summary = _last_json(proc.stdout)
    assert summary["correct"] and summary["failed"] == 0
    names = {name for name, _unit in run.END_TO_END}
    for workload in run.WORKLOADS:
        got = {key.split(":", 1)[1] for key in summary["metrics"]
               if key.startswith(workload + ":")}
        assert got == names
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert elapsed <= 30


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perf")
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "membus-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
