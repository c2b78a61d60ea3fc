"""Tests for per-trial timeouts and failure recording in TrialRunner."""

import time

import pytest

from repro.exec import TrialFailure, TrialRunner, TrialSpec

pytestmark = pytest.mark.resilience


def _quick(value=0, **_kw):
    return value


def _sleepy(duration=0.0, value=0, **_kw):
    time.sleep(duration)
    return value


def _angry(message="bad trial", **_kw):
    raise ValueError(message)


def _mixed(index=0, **_kw):
    if index == 1:
        raise ValueError("trial one always fails")
    if index == 2:
        time.sleep(5.0)
    return index


class TestWorkerTimeout:
    def test_timed_out_trial_recorded_in_slot(self):
        spec = TrialSpec(fn=_sleepy, key="t", timeout_s=0.2)
        results = TrialRunner().run_trials(spec, params=[
            {"duration": 0.0, "value": 10},
            {"duration": 5.0, "value": 11},
            {"duration": 0.0, "value": 12},
        ])
        assert results[0] == 10 and results[2] == 12
        failure = results[1]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == "timeout"
        assert failure.index == 1
        assert failure.elapsed_s < 2.0  # the alarm cut the sleep short

    def test_raised_trial_recorded_not_propagated(self):
        spec = TrialSpec(fn=_angry, key="t", timeout_s=5.0)
        results = TrialRunner().run_trials(spec, n=2)
        for failure in results:
            assert isinstance(failure, TrialFailure)
            assert failure.kind == "raised"
            assert "bad trial" in failure.message

    def test_canonical_order_holds_with_failures(self):
        spec = TrialSpec(fn=_mixed, key="t", timeout_s=0.2)
        results = TrialRunner().run_trials(
            spec, params=[{"index": i} for i in range(4)]
        )
        assert results[0] == 0 and results[3] == 3
        assert results[1].kind == "raised"
        assert results[2].kind == "timeout"

    def test_failures_are_falsy(self):
        spec = TrialSpec(fn=_mixed, key="t", timeout_s=0.2)
        results = TrialRunner().run_trials(
            spec, params=[{"index": i} for i in range(4)]
        )
        assert [r for r in results if r is not None and not isinstance(
            r, TrialFailure)] == [0, 3]
        assert not TrialFailure(0, "timeout", "", 0.0)

    def test_without_timeout_exceptions_propagate(self):
        with pytest.raises(ValueError, match="bad trial"):
            TrialRunner().run_trials(TrialSpec(fn=_angry, key="t"), n=1)

    def test_pooled_failures_match_serial(self):
        spec = TrialSpec(fn=_mixed, key="t", timeout_s=0.3)
        params = [{"index": i} for i in range(4)]
        serial = TrialRunner(jobs=1).run_trials(spec, params=params)
        # 4 trials over 2 workers go out in chunks of 1.
        pooled = TrialRunner(jobs=2).run_trials(spec, params=params)
        assert [type(r) for r in serial] == [type(r) for r in pooled]
        assert [
            r.kind if isinstance(r, TrialFailure) else r for r in serial
        ] == [
            r.kind if isinstance(r, TrialFailure) else r for r in pooled
        ]

    def test_failure_metric_counted(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        spec = TrialSpec(fn=_angry, key="angry", timeout_s=5.0)
        TrialRunner(metrics=metrics).run_trials(spec, n=3)
        snapshot = metrics.to_dict()["metrics"]
        series = snapshot["cchunter_trial_failures_total"]["series"]
        assert series[0]["labels"] == {"spec": "angry", "kind": "raised"}
        assert series[0]["value"] == 3

    def test_progress_still_reaches_total(self):
        seen = []
        spec = TrialSpec(fn=_mixed, key="t", timeout_s=0.2)
        TrialRunner(progress=lambda done, total: seen.append((done, total))) \
            .run_trials(spec, params=[{"index": i} for i in range(4)])
        assert seen[-1][0] == seen[-1][1] == 4
