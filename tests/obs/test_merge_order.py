"""Regression tests: worker metrics merge in canonical trial order.

Gauge merges are last-writer-wins, so merging worker snapshots in chunk
*completion* order made the parent registry's gauges depend on OS
scheduling whenever jobs > 1. The runner now defers all merges and
replays them sorted by first trial index; these tests skew trial
runtimes so completion order reliably disagrees with canonical order.

Trial functions live at module level so pool workers can unpickle them.
"""

import time

from repro.exec import TrialRunner, TrialSpec
from repro.obs.metrics import MetricsRegistry, get_default


def gauged(index):
    """Sets a gauge to its trial index; trial 0 finishes last."""
    if index == 0:
        time.sleep(0.4)
    get_default().counter("test_merge_trials_total").inc()
    get_default().gauge("test_merge_last_index").set(index)
    return index


N_TRIALS = 3


class TestCanonicalMergeOrder:
    def _run(self, jobs):
        registry = MetricsRegistry()
        runner = TrialRunner(jobs=jobs, metrics=registry)
        results = runner.run_trials(
            TrialSpec(fn=gauged),
            params=[{"index": i} for i in range(N_TRIALS)],
        )
        assert results == list(range(N_TRIALS))
        return registry

    def test_gauge_is_canonical_last_writer_serial(self):
        registry = self._run(jobs=1)
        assert registry.gauge("test_merge_last_index").value == N_TRIALS - 1

    def test_gauge_is_canonical_last_writer_parallel(self):
        # Chunks of 1 (3 trials over 2 workers) + the sleep in trial 0
        # force chunk 0 to finish last; with completion-order merging
        # the gauge would end at 0.
        registry = self._run(jobs=2)
        assert registry.gauge("test_merge_last_index").value == N_TRIALS - 1

    def test_counters_unaffected_by_ordering(self):
        registry = self._run(jobs=2)
        assert (
            registry.counter("test_merge_trials_total").value == N_TRIALS
        )
