"""Tests for the trial-execution runner: determinism, chunking, metrics,
crash retry. Trial functions live at module level so workers can
unpickle them by qualified name."""

import os

import numpy as np
import pytest

from repro.exec import (
    ExecError,
    TrialFailure,
    TrialRunner,
    TrialSpec,
    default_chunk_size,
    resolve_jobs,
    trial_seed,
)
from repro.exec.runner import MAX_CHUNK_RETRIES
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, get_default


def tenfold(index):
    return index * 10


def draw(seed, scale=1.0):
    """A stochastic trial: a pure function of its derived seed."""
    rng = np.random.default_rng(seed)
    return float(rng.normal() * scale)


def instrumented(index):
    """A trial that counts itself on the ambient default registry."""
    get_default().counter("test_trials_ran_total").inc()
    get_default().gauge("test_last_index").set(index)
    return index


def failing(index):
    if index == 2:
        raise ValueError("trial 2 exploded")
    return index


def crash_until_flagged(index, flag_dir):
    """Die like an OOM-killed worker once, succeed on the retry."""
    flag = os.path.join(flag_dir, f"{index}.flag")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    return index


def crash_always(index):
    os._exit(23)


def crash_at(index, crasher):
    """Healthy trials, except ``crasher``, which always kills its worker."""
    if index == crasher:
        crash_always(index)
    return index


class TestTrialSeed:
    def test_pure_function_of_inputs(self):
        assert trial_seed(1, "fig12", 7) == trial_seed(1, "fig12", 7)

    def test_distinct_across_index_key_base(self):
        seeds = {
            trial_seed(1, "a", 0), trial_seed(1, "a", 1),
            trial_seed(1, "b", 0), trial_seed(2, "a", 0),
        }
        assert len(seeds) == 4


class TestTrialSpec:
    def test_seed_injected_per_index(self):
        spec = TrialSpec(fn=draw, seed=9, key="k")
        kw0 = spec.kwargs_for(0, {})
        kw1 = spec.kwargs_for(1, {})
        assert kw0["seed"] == trial_seed(9, "k", 0)
        assert kw1["seed"] == trial_seed(9, "k", 1)

    def test_per_trial_override_wins(self):
        spec = TrialSpec(fn=draw, common={"scale": 2.0}, seed=9)
        kw = spec.kwargs_for(0, {"seed": 42, "scale": 3.0})
        assert kw == {"seed": 42, "scale": 3.0}

    def test_no_seed_when_unset(self):
        spec = TrialSpec(fn=tenfold)
        assert spec.kwargs_for(5, {"index": 5}) == {"index": 5}


class TestRunTrialsSerial:
    def test_results_in_canonical_order(self):
        spec = TrialSpec(fn=tenfold)
        results = TrialRunner().run_trials(
            spec, params=[{"index": i} for i in range(7)]
        )
        assert results == [0, 10, 20, 30, 40, 50, 60]

    def test_n_generates_empty_param_dicts(self):
        spec = TrialSpec(fn=draw, seed=3, key="n")
        assert TrialRunner().run_trials(spec, n=4) == [
            draw(trial_seed(3, "n", i)) for i in range(4)
        ]

    def test_n_params_mismatch_rejected(self):
        with pytest.raises(ExecError):
            TrialRunner().run_trials(
                TrialSpec(fn=tenfold), n=2, params=[{"index": 0}]
            )

    def test_neither_n_nor_params_rejected(self):
        with pytest.raises(ExecError):
            TrialRunner().run_trials(TrialSpec(fn=tenfold))

    def test_empty_sweep(self):
        assert TrialRunner().run_trials(TrialSpec(fn=tenfold), n=0) == []

    def test_exception_propagates(self):
        spec = TrialSpec(fn=failing)
        with pytest.raises(ValueError, match="trial 2"):
            TrialRunner().run_trials(
                spec, params=[{"index": i} for i in range(4)]
            )


class TestJobsEquivalence:
    def test_serial_equals_pooled(self):
        spec = TrialSpec(fn=draw, seed=11, key="eq")
        serial = TrialRunner().run_trials(spec, n=9)  # chunks of 3
        pooled = TrialRunner(jobs=2).run_trials(spec, n=9)  # chunks of 2
        assert serial == pooled

    def test_chunk_size_does_not_change_results(self):
        spec = TrialSpec(fn=draw, seed=11, key="eq")
        # Chunks of 3 for 9 trials, of 10 for 40: a trial's result does
        # not depend on the chunk it ran in.
        assert default_chunk_size(9, 1) != default_chunk_size(40, 1)
        runner = TrialRunner()
        assert runner.run_trials(spec, n=9) == runner.run_trials(spec, n=40)[:9]

    def test_pooled_exception_propagates(self):
        spec = TrialSpec(fn=failing)
        with pytest.raises(ValueError):
            TrialRunner(jobs=2).run_trials(
                spec, params=[{"index": i} for i in range(4)]
            )


class TestChunking:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(1000, 1) == 32  # capped
        # 4 chunks per worker: 64 trials over 2 workers -> 8 per chunk.
        assert default_chunk_size(64, 2) == 8

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ExecError):
            resolve_jobs(-1)


class TestProgressAndMetrics:
    def test_progress_reaches_total(self):
        calls = []
        runner = TrialRunner(progress=lambda d, t: calls.append((d, t)))
        runner.run_trials(TrialSpec(fn=tenfold),
                          params=[{"index": i} for i in range(5)])
        # 5 trials in-process go out in chunks of 2.
        assert calls == [(2, 5), (4, 5), (5, 5)]

    def test_trial_metrics_recorded_in_parent(self):
        registry = MetricsRegistry()
        runner = TrialRunner(jobs=1, metrics=registry)
        runner.run_trials(TrialSpec(fn=tenfold, key="m"),
                          params=[{"index": i} for i in range(6)])
        assert registry.counter(
            "cchunter_exec_trials_total", labels={"spec": "m"}
        ).value == 6
        snapshot = registry.to_dict()
        timer = snapshot["metrics"]["cchunter_trial_seconds"]
        assert timer["series"][0]["labels"] == {"spec": "m"}
        assert timer["series"][0]["count"] == 6

    def test_worker_registry_snapshots_merged(self):
        for jobs in (1, 2):
            registry = MetricsRegistry()
            runner = TrialRunner(jobs=jobs, metrics=registry)
            runner.run_trials(
                TrialSpec(fn=instrumented, key="inst"),
                params=[{"index": i} for i in range(5)],
            )
            # Counters incremented inside workers sum in the parent.
            assert registry.counter("test_trials_ran_total").value == 5
            # The trial-timing histogram saw every trial.
            snapshot = registry.to_dict()
            timer = snapshot["metrics"]["cchunter_trial_seconds"]
            assert timer["series"][0]["count"] == 5

    def test_null_registry_accepted(self):
        runner = TrialRunner(jobs=1, metrics=NULL_REGISTRY)
        results = runner.run_trials(
            TrialSpec(fn=tenfold), params=[{"index": 1}]
        )
        assert results == [10]


class TestCrashRetry:
    def test_crashed_chunk_retried_and_recovers(self, tmp_path):
        spec = TrialSpec(fn=crash_until_flagged,
                         common={"flag_dir": str(tmp_path)})
        registry = MetricsRegistry()
        runner = TrialRunner(jobs=2, metrics=registry)
        results = runner.run_trials(
            spec, params=[{"index": i} for i in range(3)]
        )
        assert results == [0, 1, 2]
        retries = registry.counter(
            "cchunter_exec_chunk_retries_total",
            labels={"spec": "crash_until_flagged"},
        ).value
        assert retries >= 1

    def test_only_the_crashing_chunk_is_charged(self):
        # Charging neighbours for a crash would count retries for healthy
        # chunks that shared the broken pool with the crasher.
        registry = MetricsRegistry()
        runner = TrialRunner(jobs=2, metrics=registry)
        results = runner.run_trials(
            TrialSpec(fn=crash_at, common={"crasher": 1}, timeout_s=30.0),
            params=[{"index": i} for i in range(5)],
        )
        assert [r for i, r in enumerate(results) if i != 1] == [0, 2, 3, 4]
        assert isinstance(results[1], TrialFailure)
        assert results[1].kind == "crashed"
        retries = registry.counter(
            "cchunter_exec_chunk_retries_total",
            labels={"spec": "crash_at"},
        ).value
        assert retries == MAX_CHUNK_RETRIES + 1

    def test_persistent_crash_exhausts_retries(self):
        runner = TrialRunner(jobs=2)
        with pytest.raises(ExecError, match="crashed"):
            runner.run_trials(
                TrialSpec(fn=crash_always),
                params=[{"index": i} for i in range(2)],
            )


def spanning(index):
    """A trial that emits nested spans for the stage profiler."""
    from repro.obs.tracing import trace_span

    with trace_span("trial.outer", quantum=index):
        with trace_span("trial.inner", quantum=index):
            pass
    return index


class TestProfileMerge:
    """Worker profile snapshots merge into the parent profiler in the
    same canonical chunk order as metrics snapshots."""

    @pytest.fixture(autouse=True)
    def _profiling_off(self):
        from repro.obs.profile import disable_profiling

        disable_profiling()
        yield
        disable_profiling()

    def _profiled_run(self, jobs):
        from repro.obs.profile import disable_profiling, enable_profiling

        profiler = enable_profiling()
        try:
            runner = TrialRunner(jobs=jobs, metrics=NULL_REGISTRY)
            results = runner.run_trials(
                TrialSpec(fn=spanning, key="prof"),
                params=[{"index": i} for i in range(6)],
            )
        finally:
            disable_profiling()
        assert results == list(range(6))
        return profiler.to_dict()

    def test_pooled_profile_matches_serial_structure(self):
        serial = self._profiled_run(jobs=1)
        pooled = self._profiled_run(jobs=2)
        for doc in (serial, pooled):
            by_path = {tuple(e["path"]): e for e in doc["stages"]}
            assert by_path[("trial.outer",)]["calls"] == 6
            assert by_path[("trial.outer", "trial.inner")]["calls"] == 6
        # Per-quantum rows come back in canonical trial order even when
        # chunks complete out of order across workers.
        for doc in (serial, pooled):
            assert [r["quantum"] for r in doc["quanta"]["rows"]] == (
                list(range(6))
            )

    def test_no_parent_profiler_means_no_snapshots(self):
        runner = TrialRunner(jobs=2, metrics=NULL_REGISTRY)
        results = runner.run_trials(
            TrialSpec(fn=spanning, key="prof"),
            params=[{"index": i} for i in range(4)],
        )
        assert results == list(range(4))
