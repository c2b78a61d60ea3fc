"""Tests for the unified benchmark harness and regression gate.

The comparison logic is pure, so most gating behavior is tested on
synthetic documents without running a single trial. The end-to-end
tests exercise the real ``repro bench check`` CLI against the committed
baselines — including the acceptance criterion that a perturbed
baseline fails with the documented exit code 8.
"""

import json
import os

import pytest

from repro.bench import (
    BenchSpec,
    MetricSpec,
    append_history,
    bench_result,
    compare_metrics,
    extract_metric,
    get_spec,
    load_history,
    suite_names,
)
from repro.bench.check import _format_failure
from repro.bench.suite import allowed_bound
from repro.cli import main
from repro.errors import EXIT_BENCH_REGRESSION, BenchError

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
BENCHMARKS_DIR = os.path.join(REPO_ROOT, "benchmarks")


def _spec(*metrics):
    return BenchSpec(
        name="toy", module="bench_toy", entry="measure",
        baseline="BENCH_toy.json", metrics=tuple(metrics),
    )


class TestCompareMetrics:
    def test_higher_is_better_gates_on_lower_bound(self):
        spec = _spec(MetricSpec("qps", "higher", tolerance=0.5))
        ok_rows = compare_metrics(spec, {"qps": 51.0}, {"qps": 100.0})
        bad_rows = compare_metrics(spec, {"qps": 49.0}, {"qps": 100.0})
        assert ok_rows[0]["ok"] and ok_rows[0]["allowed"] == 50.0
        assert not bad_rows[0]["ok"]

    def test_lower_is_better_with_abs_slack(self):
        spec = _spec(
            MetricSpec("overhead", "lower", tolerance=0.5, abs_slack=0.05)
        )
        # Bound = 0.04 * 1.5 + 0.05 = 0.11.
        (row,) = compare_metrics(
            spec, {"overhead": 0.10}, {"overhead": 0.04}
        )
        assert row["ok"] and row["allowed"] == pytest.approx(0.11)
        (row,) = compare_metrics(
            spec, {"overhead": 0.12}, {"overhead": 0.04}
        )
        assert not row["ok"]

    def test_bool_true_baseline_is_invariant(self):
        spec = _spec(MetricSpec("identical", kind="bool"))
        assert compare_metrics(
            spec, {"identical": True}, {"identical": True}
        )[0]["ok"]
        assert not compare_metrics(
            spec, {"identical": False}, {"identical": True}
        )[0]["ok"]
        # A false baseline gates nothing.
        assert compare_metrics(
            spec, {"identical": False}, {"identical": False}
        )[0]["ok"]

    def test_failed_bool_row_prints_the_numbers_beside_it(self):
        spec = _spec(
            MetricSpec("growth.flat", kind="bool"),
            MetricSpec("identical", kind="bool"),
        )
        fresh = {
            "growth": {
                "quanta": [12, 48],
                "ratio": 4.36,
                "long_quantum_seconds": 0.246,
                "flat": False,
            },
            "identical": False,
            "trials": 3,
        }
        baseline = {"growth": {"flat": True}, "identical": True}
        nested, top = compare_metrics(spec, fresh, baseline)
        assert nested["context"] == {
            "ratio": 4.36, "long_quantum_seconds": 0.246,
        }
        assert _format_failure(nested) == (
            "toy.growth.flat: baseline True but fresh run produced False "
            "(ratio=4.36, long_quantum_seconds=0.246)"
        )
        assert _format_failure(top).endswith(
            "produced False (trials=3)"
        )

    def test_quick_skips_full_only_metrics(self):
        spec = _spec(
            MetricSpec("qps", "higher", tolerance=0.5),
            MetricSpec("overhead", "lower", quick=False),
        )
        rows = compare_metrics(
            spec, {"qps": 100.0}, {"qps": 100.0}, quick=True
        )
        by_key = {row["metric"]: row for row in rows}
        assert not by_key["qps"]["skipped"]
        # Skipped rows still appear (visible in output) and never fail.
        assert by_key["overhead"]["skipped"] and by_key["overhead"]["ok"]
        full = compare_metrics(
            spec, {"qps": 100.0, "overhead": 0.01},
            {"qps": 100.0, "overhead": 0.01},
        )
        assert not any(row["skipped"] for row in full)

    def test_missing_metric_raises(self):
        spec = _spec(MetricSpec("a.b.c", "higher"))
        with pytest.raises(BenchError, match="a.b.c"):
            compare_metrics(spec, {"a": {"b": {}}}, {"a": {"b": {"c": 1}}})


class TestSuiteHelpers:
    def test_extract_metric_walks_dotted_path(self):
        doc = {"session": {"speedup": 4.8}}
        assert extract_metric(doc, "session.speedup") == 4.8
        with pytest.raises(BenchError):
            extract_metric(doc, "session.missing")

    def test_registered_suite_names(self):
        assert "obs_overhead" in suite_names()
        assert "columnar" in suite_names()
        with pytest.raises(BenchError, match="unknown benchmark"):
            get_spec("nope")

    def test_allowed_bound_rejects_bad_direction(self):
        with pytest.raises(BenchError, match="direction"):
            allowed_bound(MetricSpec("x", "sideways"), 1.0)

    def test_committed_baselines_carry_every_gated_metric(self):
        """The registry and the committed baseline files stay in sync."""
        for name in suite_names():
            spec = get_spec(name)
            with open(os.path.join(REPO_ROOT, spec.baseline)) as handle:
                baseline = json.load(handle)
            for metric in spec.metrics:
                extract_metric(baseline, metric.key)  # raises if missing


class TestHistoryAndResult:
    def test_result_document_shape(self):
        doc = bench_result(
            "obs_overhead", {"qps": 1.0},
            timestamp="2026-08-08T00:00:00+00:00", quick=True,
            git_rev="abc123", fingerprint={"machine": "x86_64"},
        )
        assert doc["format"] == "repro.bench.result/v1"
        assert doc["name"] == "obs_overhead"
        assert doc["timestamp"] == "2026-08-08T00:00:00+00:00"
        assert doc["quick"] is True
        assert doc["metrics"] == {"qps": 1.0}

    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "history.jsonl")
        records = [
            bench_result("a", {"m": i}, timestamp=None, quick=False)
            for i in range(3)
        ]
        assert append_history(path, records) == 3
        assert append_history(path, records[:1]) == 1
        loaded = load_history(path)
        assert len(loaded) == 4
        assert [r["metrics"]["m"] for r in loaded] == [0, 1, 2, 0]

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = json.dumps(
            bench_result("a", {}, timestamp=None, quick=True)
        )
        path.write_text(good + "\nnot json\n" + good + "\n")
        assert len(load_history(str(path))) == 2


class TestBenchCheckCLI:
    """End-to-end: the real gate against real (and perturbed) baselines."""

    def test_quick_check_passes_and_appends_history(self, tmp_path, capsys):
        history = str(tmp_path / "history.jsonl")
        code = main([
            "bench", "check", "--quick",
            "--baseline-dir", REPO_ROOT,
            "--benchmarks-dir", BENCHMARKS_DIR,
            "--history", history,
            "obs_overhead",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "all gated metrics within tolerance" in out
        assert "skip (full run only)" in out
        (record,) = load_history(history)
        assert record["name"] == "obs_overhead"
        assert record["quick"] is True
        # Provenance is stamped by the CLI, not the library.
        assert record["timestamp"]

    def test_perturbed_baseline_fails_with_exit_code_8(
        self, tmp_path, capsys
    ):
        with open(os.path.join(REPO_ROOT, "BENCH_obs.json")) as handle:
            baseline = json.load(handle)
        # No machine reaches a thousand times the committed throughput.
        baseline["quanta_per_second"]["off"] = 1e9
        (tmp_path / "BENCH_obs.json").write_text(json.dumps(baseline))
        code = main([
            "bench", "check", "--quick", "--no-history",
            "--baseline-dir", str(tmp_path),
            "--benchmarks-dir", BENCHMARKS_DIR,
            "obs_overhead",
        ])
        assert code == EXIT_BENCH_REGRESSION == 8
        err = capsys.readouterr().err
        assert "benchmark regression" in err
        assert "quanta_per_second.off" in err

    def test_unknown_bench_is_usage_error(self, capsys):
        code = main(["bench", "check", "--no-history", "nope"])
        assert code == 2
