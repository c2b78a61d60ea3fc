"""Run registered benches and gate fresh numbers against baselines.

``run_bench`` executes a bench the same way its pytest wrapper would —
it imports ``benchmarks/bench_<name>.py`` and calls the measurement
entry function — but outside pytest, so the harness (and CI) need no
benchmark plugins. Two import-time details matter:

- The bench modules read ``REPRO_BENCH_QUICK`` *at import* to size
  their trial counts, so the env var is set before the import and each
  (bench, quick) pair gets its own module instance under a unique name.
- They do ``from conftest import record``; the harness loads the real
  ``benchmarks/conftest.py`` under that name for the duration of the
  import (saving and restoring any module already registered as
  ``conftest``, e.g. pytest's own), so running the harness from inside
  a test session cannot cross-wire conftests.

``compare_metrics`` is pure — it takes a fresh metrics doc and a
baseline doc and returns per-metric rows — so tests can gate synthetic
documents without running a single trial. ``check_benches`` composes
the two and raises :class:`repro.errors.BenchRegressionError` (CLI
exit code 8) when any metric lands outside its tolerance.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.bench.result import bench_result
from repro.bench.suite import (
    BenchSpec,
    allowed_bound,
    extract_metric,
    get_spec,
)
from repro.errors import BenchError, BenchRegressionError


def _load_bench_module(
    spec: BenchSpec, benchmarks_dir: str, quick: bool
):
    """Import a bench module by path, isolated per (name, quick) pair."""
    module_path = os.path.join(benchmarks_dir, spec.module + ".py")
    if not os.path.isfile(module_path):
        raise BenchError(
            f"benchmark module not found: {module_path}"
        )
    module_name = f"_repro_bench_{spec.name}_{'quick' if quick else 'full'}"

    saved_env = os.environ.get("REPRO_BENCH_QUICK")
    saved_conftest = sys.modules.get("conftest")
    os.environ["REPRO_BENCH_QUICK"] = "1" if quick else ""
    try:
        conftest_path = os.path.join(benchmarks_dir, "conftest.py")
        if os.path.isfile(conftest_path):
            cspec = importlib.util.spec_from_file_location(
                "conftest", conftest_path
            )
            conftest = importlib.util.module_from_spec(cspec)
            cspec.loader.exec_module(conftest)
            sys.modules["conftest"] = conftest
        mspec = importlib.util.spec_from_file_location(
            module_name, module_path
        )
        module = importlib.util.module_from_spec(mspec)
        sys.modules[module_name] = module
        try:
            mspec.loader.exec_module(module)
        except Exception:
            sys.modules.pop(module_name, None)
            raise
        return module
    finally:
        if saved_conftest is not None:
            sys.modules["conftest"] = saved_conftest
        else:
            sys.modules.pop("conftest", None)
        if saved_env is None:
            os.environ.pop("REPRO_BENCH_QUICK", None)
        else:
            os.environ["REPRO_BENCH_QUICK"] = saved_env


def run_bench(
    name: str, benchmarks_dir: str, quick: bool = False
) -> Dict[str, Any]:
    """Run one registered bench; returns its raw metrics document."""
    spec = get_spec(name)
    module = _load_bench_module(spec, benchmarks_dir, quick)
    entry = getattr(module, spec.entry, None)
    if entry is None:
        raise BenchError(
            f"benchmark {name!r}: module {spec.module} has no entry "
            f"function {spec.entry!r}"
        )
    # The entry reads module-level trial counts sized at import; the
    # env var only needed to be live for the import above.
    metrics = entry()
    if not isinstance(metrics, dict):
        raise BenchError(
            f"benchmark {name!r}: entry {spec.entry!r} returned "
            f"{type(metrics).__name__}, expected dict"
        )
    return metrics


def load_baseline(spec: BenchSpec, baseline_dir: str) -> Dict[str, Any]:
    path = os.path.join(baseline_dir, spec.baseline)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise BenchError(
            f"benchmark {spec.name!r}: baseline file missing: {path}. "
            "Run the full benchmark suite to regenerate it."
        )
    except ValueError as exc:
        raise BenchError(
            f"benchmark {spec.name!r}: baseline {path} is not valid "
            f"JSON: {exc}"
        )
    if not isinstance(doc, dict):
        raise BenchError(
            f"benchmark {spec.name!r}: baseline {path} must be a JSON "
            "object"
        )
    return doc


def compare_metrics(
    spec: BenchSpec,
    fresh: Mapping[str, Any],
    baseline: Mapping[str, Any],
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """Per-metric comparison rows; pure, no benches run.

    Each row carries ``ok`` plus everything needed to print a verdict
    line: metric key, direction, baseline and fresh values, and the
    worst tolerated value (``allowed``). A bool row also carries the
    numbers that sit beside the bool in the fresh document
    (``context``), since the bool is only a verdict on them. Metrics
    marked ``quick=False`` are reported as skipped rows under a quick
    run instead of judged.
    """
    rows: List[Dict[str, Any]] = []
    for metric in spec.metrics:
        row: Dict[str, Any] = {
            "bench": spec.name,
            "metric": metric.key,
            "direction": metric.direction,
            "kind": metric.kind,
        }
        if quick and not metric.quick:
            row.update(ok=True, skipped=True)
            rows.append(row)
            continue
        base_value = extract_metric(baseline, metric.key)
        fresh_value = extract_metric(fresh, metric.key)
        row.update(skipped=False)
        if metric.kind == "bool":
            # A true baseline is an invariant; a false one gates nothing.
            ok = bool(fresh_value) or not bool(base_value)
            parent = metric.key.rpartition(".")[0]
            siblings = extract_metric(fresh, parent) if parent else fresh
            row.update(
                baseline=bool(base_value), fresh=bool(fresh_value), ok=ok,
                context={
                    name: value for name, value in siblings.items()
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)
                },
            )
            rows.append(row)
            continue
        base_value = float(base_value)
        fresh_value = float(fresh_value)
        allowed = allowed_bound(metric, base_value)
        if metric.direction == "higher":
            ok = fresh_value >= allowed
        else:
            ok = fresh_value <= allowed
        row.update(
            baseline=base_value,
            fresh=fresh_value,
            allowed=allowed,
            ok=ok,
        )
        rows.append(row)
    return rows


def _format_failure(row: Mapping[str, Any]) -> str:
    if row["kind"] == "bool":
        numbers = ", ".join(
            f"{name}={value:.3g}" for name, value in row["context"].items()
        )
        return (
            f"{row['bench']}.{row['metric']}: baseline {row['baseline']} "
            f"but fresh run produced {row['fresh']}"
            + (f" ({numbers})" if numbers else "")
        )
    word = "below" if row["direction"] == "higher" else "above"
    return (
        f"{row['bench']}.{row['metric']}: fresh {row['fresh']:.6g} is "
        f"{word} the tolerated bound {row['allowed']:.6g} "
        f"(baseline {row['baseline']:.6g}, {row['direction']} is better)"
    )


def check_benches(
    names: Optional[Sequence[str]] = None,
    *,
    baseline_dir: str,
    benchmarks_dir: str,
    quick: bool = False,
    history_path: Optional[str] = None,
    timestamp: Optional[str] = None,
    git_rev: Optional[str] = None,
    fingerprint: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the named benches (default: all) and gate against baselines.

    Returns a report ``{"quick", "benches": [{name, rows, metrics}]}``
    after appending one result document per bench to ``history_path``
    (when given). Raises :class:`BenchRegressionError` once all benches
    have run if any gated metric failed — every verdict is evaluated
    and recorded before the gate trips, so one regression does not hide
    another.
    """
    from repro.bench.suite import suite_names

    if not names:
        names = suite_names()
    report: Dict[str, Any] = {"quick": quick, "benches": []}
    failures: List[Dict[str, Any]] = []
    history_records = []
    for name in names:
        spec = get_spec(name)
        baseline = load_baseline(spec, baseline_dir)
        fresh = run_bench(name, benchmarks_dir, quick=quick)
        rows = compare_metrics(spec, fresh, baseline, quick=quick)
        failures.extend(row for row in rows if not row["ok"])
        report["benches"].append(
            {"name": name, "rows": rows, "metrics": fresh}
        )
        history_records.append(
            bench_result(
                name,
                fresh,
                timestamp=timestamp,
                quick=quick,
                git_rev=git_rev,
                fingerprint=fingerprint,
            )
        )
    if history_path is not None:
        from repro.bench.history import append_history

        append_history(history_path, history_records)
    if failures:
        raise BenchRegressionError(
            "benchmark regression: "
            + "; ".join(_format_failure(row) for row in failures)
        )
    return report
