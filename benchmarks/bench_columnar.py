"""Extension: columnar estimator kernels vs their per-event adapters.

The structure-of-arrays refactor (docs/PERFORMANCE.md, "Columnar hot
path") hands each analyzer a whole window of counts at once, and the
vectorized estimator kernels must beat their per-event adapters by an
order of magnitude or more. The density row times the CC-auditor's
``MonitorSlot.ingest_window_counts`` called once per window against one
call for the whole column. This bench
measures that claim and commits the numbers to ``BENCH_columnar.json``
at the repo root. Whole-session throughput on the same audited bus
session is gated by ``bench_obs_overhead`` (``quanta_per_second.off``).

``REPRO_BENCH_QUICK=1`` shrinks the sample count for CI smoke runs (the
speedup assertions still apply; the committed JSON is only rewritten by
a full run).
"""

import json
import os
from time import perf_counter

import numpy as np

from conftest import record

from repro.config import AuditorConfig
from repro.hardware.auditor import MonitorSlot

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
KERNEL_SAMPLES = 50_000 if QUICK else 200_000

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_columnar.json",
)


def _time_kernel(fn, *args):
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
    return best


def _kernel_results():
    rng = np.random.default_rng(17)
    counts = rng.integers(0, 40, size=KERNEL_SAMPLES).astype(np.int64)

    def density_push(values):
        slot = MonitorSlot("membus", 1000, AuditorConfig())
        for i in range(values.size):
            slot.ingest_window_counts(values[i : i + 1])
        return slot

    def density_batch(values):
        slot = MonitorSlot("membus", 1000, AuditorConfig())
        slot.ingest_window_counts(values)
        return slot

    push_sec = _time_kernel(density_push, counts)
    batch_sec = _time_kernel(density_batch, counts)
    return {
        "density_histogram": {
            "samples": int(counts.size),
            "push_seconds": push_sec,
            "push_batch_seconds": batch_sec,
            "speedup": push_sec / batch_sec,
        }
    }


def measure_columnar():
    return {"kernels": _kernel_results()}


def test_columnar_speedup(benchmark):
    results = benchmark.pedantic(measure_columnar, rounds=1, iterations=1)
    if not QUICK:  # quick CI smoke must not rewrite the committed JSON
        with open(_OUT_PATH, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    lines = [
        f"{name:<18} push_batch {k['speedup']:6.1f}x faster than "
        f"per-event push ({k['samples']} samples)"
        for name, k in sorted(results["kernels"].items())
    ]
    lines.append(f"(written to {_OUT_PATH})")
    record("Extension: columnar hot path", *lines)
    # The batch kernels must dominate their per-event adapters.
    for name, k in results["kernels"].items():
        assert k["speedup"] > 5.0, (name, results)
