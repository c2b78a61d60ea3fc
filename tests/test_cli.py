"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect"])
        assert args.channel == "membus"
        assert args.bandwidth == 10.0

    def test_figure_number(self):
        args = build_parser().parse_args(["figure", "8"])
        assert args.number == 8


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "0.0028" in out

    def test_detect_small(self, capsys):
        code = main([
            "detect", "--channel", "membus", "--bandwidth", "1000",
            "--bits", "8", "--no-noise",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit error rate: 0.000" in out
        assert "CC-Hunter detection report" in out

    def test_detect_json(self, capsys):
        code = main([
            "detect", "--channel", "membus", "--bandwidth", "1000",
            "--bits", "8", "--no-noise", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channel"] == "membus"
        assert payload["bit_error_rate"] == 0.0
        verdicts = payload["report"]["verdicts"]
        assert verdicts[0]["unit"] == "membus"
        assert "first_detection_quantum" in payload

    def test_detect_stream_prints_per_quantum(self, capsys):
        code = main([
            "detect", "--channel", "membus", "--bandwidth", "100",
            "--bits", "20", "--no-noise", "--stream",
        ])
        assert code == 0
        out = capsys.readouterr().out
        quantum_lines = [l for l in out.splitlines()
                         if l.startswith("[quantum")]
        assert len(quantum_lines) >= 2  # one verdict line per quantum
        assert "first detection [membus]" in out

    def test_detect_stream_jsonl(self, capsys):
        code = main([
            "detect", "--channel", "membus", "--bandwidth", "1000",
            "--bits", "8", "--no-noise", "--stream", "--json",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) >= 2  # per-quantum lines plus the final report
        for line in lines:
            payload = json.loads(line)
            assert "report" in payload

    def test_figure_6(self, capsys):
        assert main(["figure", "6", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out
        assert "Figure 6b" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "99"]) == 2

    def test_record_and_analyze_roundtrip(self, tmp_path, capsys):
        archive_path = str(tmp_path / "session.npz")
        assert main([
            "record", archive_path, "--channel", "membus",
            "--bandwidth", "100", "--bits", "30", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded 3 quanta" in out
        # analyze exits 3 when something was detected.
        assert main(["analyze", archive_path]) == 3
        out = capsys.readouterr().out
        assert "membus" in out
        assert "COVERT TIMING CHANNEL LIKELY" in out

    def test_analyze_json(self, tmp_path, capsys):
        archive_path = str(tmp_path / "session.npz")
        assert main([
            "record", archive_path, "--channel", "membus",
            "--bandwidth", "100", "--bits", "30", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", archive_path, "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["any_detected"] is True
        assert any(
            v["unit"] == "membus" and v["detected"]
            for v in payload["verdicts"]
        )

    def test_false_alarms_exit_code(self, capsys):
        assert main(["false-alarms", "--quanta", "2"]) == 0
        out = capsys.readouterr().out
        assert "false alarms: 0" in out


class TestRobustness:
    """--inject plumbing and the documented exit-code taxonomy."""

    def _record(self, tmp_path, capsys):
        archive_path = str(tmp_path / "session.npz")
        assert main([
            "record", archive_path, "--channel", "membus",
            "--bandwidth", "100", "--bits", "30", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        return archive_path

    def test_detect_with_injection_reports_degraded(self, capsys):
        code = main([
            "detect", "--channel", "membus", "--bandwidth", "100",
            "--bits", "20", "--no-noise", "--inject", "drop:0.30",
            "--json",
        ])
        assert code == 0  # degraded, not dead
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["health"] == "degraded"

    def test_bad_inject_spec_is_usage_error(self, capsys):
        code = main([
            "detect", "--channel", "membus", "--bits", "8",
            "--inject", "warp:0.1",
        ])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_analyze_missing_archive_exits_5(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.npz")])
        assert code == 5
        assert "repro: error:" in capsys.readouterr().err

    def test_analyze_corrupt_archive_exits_4(self, tmp_path, capsys):
        from repro.faults import corrupt_archive

        archive_path = self._record(tmp_path, capsys)
        corrupt_archive(archive_path, seed=3)
        code = main(["analyze", archive_path])
        assert code == 4
        err = capsys.readouterr().err
        assert "integrity" in err

    def test_analyze_truncated_archive_exits_4(self, tmp_path, capsys):
        archive_path = self._record(tmp_path, capsys)
        data = open(archive_path, "rb").read()
        with open(archive_path, "wb") as handle:
            handle.write(data[: len(data) // 3])
        assert main(["analyze", archive_path]) == 4

    def test_analyze_skip_corrupt_degrades(self, tmp_path, capsys):
        from repro.faults import corrupt_archive

        archive_path = self._record(tmp_path, capsys)
        # Corrupt the membus record specifically so the gap lands on a
        # channel the analyzers actually watch.
        corrupt_archive(archive_path, keys=["bus_lock_times"], seed=3)
        code = main(["analyze", archive_path, "--skip-corrupt", "--json"])
        assert code in (0, 3)  # completed; detection depends on damage
        captured = capsys.readouterr()
        assert "corrupt records skipped" in captured.err
        payload = json.loads(captured.out)
        assert payload["health"] == "degraded"

    def test_skip_corrupt_warns_only_of_units_in_report(
        self, tmp_path, capsys
    ):
        """Every unit a --skip-corrupt warning calls degraded is in the
        report, degraded. A dense record whose key names no core belongs
        to no unit: it is dropped, and no warning promises its verdict."""
        import re

        import numpy as np

        from repro.faults import corrupt_archive
        from repro.traces import _checksum_manifest

        archive_path = self._record(tmp_path, capsys)
        with np.load(archive_path) as data:
            payload = {key: data[key] for key in data.files}
        del payload["checksum_manifest"]
        payload["divider_wait_counts_x"] = payload["divider_wait_counts_0"]
        payload["checksum_manifest"] = np.array(_checksum_manifest(payload))
        np.savez_compressed(archive_path, **payload)
        corrupt_archive(archive_path, keys=["bus_lock_times"], seed=3)
        code = main(["analyze", archive_path, "--skip-corrupt", "--json"])
        assert code in (0, 3)
        captured = capsys.readouterr()
        warned = re.findall(
            r"corrupt records skipped for unit '([^']+)'", captured.err
        )
        assert warned == ["membus"]
        health = {
            verdict["unit"]: verdict["health"]
            for verdict in json.loads(captured.out)["verdicts"]
        }
        for unit in warned:
            assert health.get(unit) == "degraded", unit
        assert "'divider_wait_counts_x'" in captured.err
        assert "dropped" in captured.err

    def test_analyze_with_injection(self, tmp_path, capsys):
        archive_path = self._record(tmp_path, capsys)
        code = main([
            "analyze", archive_path, "--inject", "drop:0.30", "--json",
        ])
        assert code in (0, 3)
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"] == "degraded"

    def test_trial_timeout_flag_parses(self):
        args = build_parser().parse_args(
            ["--trial-timeout", "2.5", "figure", "10"]
        )
        assert args.trial_timeout == 2.5
        args = build_parser().parse_args(
            ["figure", "10", "--trial-timeout", "2.5"]
        )
        assert args.trial_timeout == 2.5
        args = build_parser().parse_args(["figure", "10"])
        assert args.trial_timeout is None


class TestObservability:
    DETECT = [
        "detect", "--channel", "membus", "--bandwidth", "1000",
        "--bits", "8", "--no-noise",
    ]

    def test_detect_metrics_out(self, tmp_path, capsys):
        from repro.obs.metrics import load_snapshot, metric_names

        path = str(tmp_path / "metrics.json")
        assert main(self.DETECT + ["--metrics-out", path]) == 0
        assert "metrics snapshot written" in capsys.readouterr().err
        snapshot = load_snapshot(path)
        names = set(metric_names(snapshot))
        # The acceptance contract: throughput, per-analyzer push latency,
        # first detection, and accumulator saturation are all in the file.
        assert "cchunter_sim_quanta_per_second" in names
        assert "cchunter_analyzer_push_seconds" in names
        assert "cchunter_first_detection_quantum" in names
        assert "cchunter_analyzer_clamp_events_total" in names
        assert "cchunter_analyzer_entry_saturation_total" in names
        push = snapshot["metrics"]["cchunter_analyzer_push_seconds"]
        assert push["series"][0]["labels"] == {"unit": "membus"}
        assert push["series"][0]["count"] >= 1

    def test_detect_trace_out(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(self.DETECT + ["--trace-out", str(path)]) == 0
        assert "chrome trace" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"sim.quantum", "source.emit", "analyzer.push"} <= names

    def test_metrics_subcommand_prometheus(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        assert main(self.DETECT + ["--metrics-out", path]) == 0
        capsys.readouterr()
        assert main(["metrics", path]) == 0
        text = capsys.readouterr().out
        assert "# TYPE cchunter_sim_quanta_total counter" in text
        assert (
            'cchunter_analyzer_push_seconds_bucket{unit="membus",le="+Inf"}'
            in text
        )
        assert 'cchunter_first_detection_quantum{unit="membus"}' in text

    def test_metrics_subcommand_json(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        assert main(self.DETECT + ["--metrics-out", path]) == 0
        capsys.readouterr()
        assert main(["metrics", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.obs.metrics/v1"

    def test_prometheus_names_match_json_names(self, tmp_path, capsys):
        """Identical metric names in JSON snapshot and text exposition."""
        import re

        from repro.obs.metrics import load_snapshot, metric_names

        path = str(tmp_path / "metrics.json")
        assert main(self.DETECT + ["--metrics-out", path]) == 0
        capsys.readouterr()
        assert main(["metrics", path]) == 0
        text = capsys.readouterr().out
        exposed = {
            m.group(1)
            for m in re.finditer(r"^# TYPE (\S+)", text, flags=re.M)
        }
        assert exposed == set(metric_names(load_snapshot(path)))

    def test_analyze_metrics_out(self, tmp_path, capsys):
        from repro.obs.metrics import load_snapshot

        archive_path = str(tmp_path / "session.npz")
        assert main([
            "record", archive_path, "--channel", "membus",
            "--bandwidth", "100", "--bits", "30", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        path = str(tmp_path / "metrics.json")
        assert main(["analyze", archive_path, "--metrics-out", path]) == 3
        snapshot = load_snapshot(path)
        metrics = snapshot["metrics"]
        assert metrics["cchunter_replay_quanta_total"]["series"][0][
            "value"
        ] == 3
        # The replay ran eagerly, so first detection is in the snapshot.
        first = metrics["cchunter_first_detection_quantum"]["series"]
        assert any(
            s["labels"] == {"unit": "membus"} and s["value"] >= 0
            for s in first
        )

    def test_log_level_flag(self, capsys):
        assert main(["--log-level", "DEBUG"] + self.DETECT) == 0
        err = capsys.readouterr().err
        assert "repro.sim.machine" in err

    def test_log_json_flag(self, capsys):
        assert main(
            ["--log-level", "DEBUG", "--log-json"] + self.DETECT
        ) == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["logger"].startswith("repro.")


class TestForensics:
    DETECT = [
        "detect", "--channel", "membus", "--bandwidth", "1000",
        "--bits", "8", "--no-noise",
    ]

    def _record(self, tmp_path):
        archive = str(tmp_path / "trace.npz")
        assert main([
            "record", archive, "--channel", "membus",
            "--bandwidth", "100", "--bits", "30", "--seed", "2",
        ]) == 0
        return archive

    def test_detect_evidence_out(self, tmp_path, capsys):
        from repro.obs.evidence import EVIDENCE_FORMAT, load_evidence

        path = str(tmp_path / "ev.json")
        assert main(self.DETECT + ["--evidence-out", path]) == 0
        assert "evidence bundles" in capsys.readouterr().err
        doc = load_evidence(path)
        assert doc["format"] == EVIDENCE_FORMAT
        bundle = doc["units"]["membus"]
        assert bundle["method"] == "burst"
        assert bundle["lr_trajectory"]
        meta = doc["meta"]
        assert meta["channel"] == "membus"
        assert meta["lr_threshold"] == 0.5
        verdicts = meta["report"]["verdicts"]
        assert verdicts and "evidence" not in verdicts[0]

    def test_detect_report_out_html(self, tmp_path, capsys):
        path = str(tmp_path / "report.html")
        assert main(self.DETECT + ["--report-out", path]) == 0
        assert "forensic report (html)" in capsys.readouterr().err
        html = open(path).read()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "membus" in html

    @staticmethod
    def _one_record_per_quantum(path, source, n_quanta):
        """The series holds quanta 0..n-1 in order, then one ``close``
        record without a quantum, under a header that dropped nothing."""
        from repro.obs.timeseries import load_jsonl

        header, records = load_jsonl(path)
        assert header["source"] == source
        assert header["capacity"] == 4096
        assert header["samples_dropped"] == 0
        assert header["samples_taken"] == n_quanta + 1
        assert [r["quantum"] for r in records] == list(range(n_quanta)) + [
            None
        ]
        assert [r.get("label") for r in records] == [None] * n_quanta + [
            "close"
        ]
        return records

    def test_detect_timeseries_out(self, tmp_path, capsys):
        from repro.obs.timeseries import series_keys

        path = str(tmp_path / "ts.jsonl")
        assert main([
            "detect", "--channel", "membus", "--bandwidth", "100",
            "--bits", "16", "--no-noise", "--timeseries-out", path,
        ]) == 0
        assert "metrics time series" in capsys.readouterr().err
        records = self._one_record_per_quantum(path, "detect", 2)
        assert "cchunter_sim_quanta_total" in series_keys(records)

    def test_analyze_timeseries_out(self, tmp_path, capsys):
        archive = str(tmp_path / "trace.npz")
        assert main([
            "record", archive, "--channel", "membus",
            "--bandwidth", "100", "--bits", "16",
        ]) == 0
        path = str(tmp_path / "ts.jsonl")
        assert main(
            ["analyze", archive, "--timeseries-out", path]
        ) in (0, 3)
        assert "metrics time series" in capsys.readouterr().err
        self._one_record_per_quantum(path, "analyze", 2)

    def test_detect_watch_plain_stream(self, capsys):
        assert main(self.DETECT + ["--watch"]) == 0
        err = capsys.readouterr().err
        assert "CC-Hunter watch" in err
        assert "session closed" in err

    def test_report_subcommand_stdout(self, tmp_path, capsys):
        ev = str(tmp_path / "ev.json")
        assert main(self.DETECT + ["--evidence-out", ev]) == 0
        capsys.readouterr()
        assert main(["report", ev]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<!DOCTYPE html>")
        assert "<svg" in out

    def test_report_subcommand_markdown_out(self, tmp_path, capsys):
        ev = str(tmp_path / "ev.json")
        ts = str(tmp_path / "ts.jsonl")
        assert main(
            self.DETECT + ["--evidence-out", ev, "--timeseries-out", ts]
        ) == 0
        capsys.readouterr()
        out = str(tmp_path / "report.md")
        assert main(["report", ev, "--timeseries", ts, "--out", out]) == 0
        assert "forensic report (md)" in capsys.readouterr().err
        text = open(out).read()
        assert text.startswith("# CC-Hunter forensic report")
        assert "## membus" in text

    def test_report_rejects_corrupt_evidence(self, tmp_path, capsys):
        from repro.errors import EXIT_CORRUPT_ARCHIVE

        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write('{"format": "other"}')
        assert main(["report", path]) == EXIT_CORRUPT_ARCHIVE
        assert "error" in capsys.readouterr().err

    def test_analyze_forensic_outputs(self, tmp_path, capsys):
        from repro.obs.evidence import load_evidence

        archive = self._record(tmp_path)
        ev = str(tmp_path / "ev.json")
        report_path = str(tmp_path / "report.html")
        assert main([
            "analyze", archive, "--evidence-out", ev,
            "--report-out", report_path,
        ]) == 3  # the recorded channel is detected
        capsys.readouterr()
        doc = load_evidence(ev)
        assert set(doc["units"]) == {"membus", "cache"}
        assert doc["meta"]["command"] == "analyze"
        html = open(report_path).read()
        assert "<svg" in html and "cache" in html

    def test_figure_metrics_out(self, tmp_path, capsys):
        from repro.obs.metrics import load_snapshot, metric_names

        path = str(tmp_path / "m.json")
        assert main(["figure", "6", "--metrics-out", path]) == 0
        assert "metrics snapshot written" in capsys.readouterr().err
        names = set(metric_names(load_snapshot(path)))
        assert "cchunter_sim_quanta_total" in names

    def test_false_alarms_metrics_out(self, tmp_path, capsys):
        from repro.obs.metrics import load_snapshot

        path = str(tmp_path / "m.json")
        code = main([
            "false-alarms", "--quanta", "2", "--metrics-out", path,
        ])
        assert code in (0, 1)
        assert "metrics snapshot written" in capsys.readouterr().err
        snapshot = load_snapshot(path)
        series = snapshot["metrics"]["cchunter_exec_trials_total"]["series"]
        assert sum(s["value"] for s in series) > 0
