"""Tests for the metrics time-series sampler and JSONL series helpers."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    CAPACITY,
    TIMESERIES_FORMAT,
    MetricsSampler,
    TimeseriesError,
    flatten_snapshot,
    load_jsonl,
    series_keys,
    series_values,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestFlatten:
    def test_counter_gauge_series_keys(self, registry):
        registry.counter("a_total", "help").inc(3)
        registry.gauge("g", "help", labels={"unit": "membus"}).set(2.5)
        flat = flatten_snapshot(registry.to_dict())
        assert flat["a_total"] == 3.0
        assert flat['g{unit="membus"}'] == 2.5

    def test_histogram_flattens_to_sum_and_count(self, registry):
        h = registry.histogram("lat_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        flat = flatten_snapshot(registry.to_dict())
        assert flat["lat_seconds_count"] == 2.0
        assert flat["lat_seconds_sum"] == pytest.approx(0.55)

    def test_label_keys_sorted_deterministically(self, registry):
        registry.counter("c", "h", labels={"b": "2", "a": "1"}).inc()
        (key,) = flatten_snapshot(registry.to_dict())
        assert key == 'c{a="1",b="2"}'


class TestMetricsSampler:
    def test_ring_retention_counts_drops(self, registry):
        sampler = MetricsSampler(registry=registry)
        for i in range(CAPACITY + 2):
            sampler.sample(quantum=i)
        assert len(sampler) == CAPACITY
        assert [r["quantum"] for r in sampler.records()] == list(
            range(2, CAPACITY + 2)
        )
        assert sampler.samples_taken == CAPACITY + 2
        assert sampler.samples_dropped == 2

    def test_label_and_seq_monotonic(self, registry):
        ticks = iter([5.0, 5.5])
        sampler = MetricsSampler(registry=registry, clock=lambda: next(ticks))
        sampler.sample(quantum=0)
        sampler.sample(label="close")
        first, second = sampler.records()
        assert "label" not in first
        assert second["label"] == "close"
        assert second["seq"] == first["seq"] + 1
        # t_s counts seconds from the first sample.
        assert (first["t_s"], second["t_s"]) == (0.0, 0.5)

    def test_self_metrics(self, registry):
        sampler = MetricsSampler(registry=registry, source="t")
        for _ in range(CAPACITY + 1):
            sampler.sample()
        flat = flatten_snapshot(registry.to_dict())
        assert flat['cchunter_sampler_samples_total{source="t"}'] == (
            CAPACITY + 1.0
        )
        assert flat['cchunter_sampler_dropped_total{source="t"}'] == 1.0


class TestJsonlRoundTrip:
    def test_write_and_load(self, registry, tmp_path):
        registry.counter("c_total", "h").inc()
        sampler = MetricsSampler(registry=registry, source="main")
        sampler.sample(quantum=0)
        sampler.sample(quantum=1)
        path = tmp_path / "ts.jsonl"
        sampler.write_jsonl(str(path))
        header, records = load_jsonl(str(path))
        assert header["format"] == TIMESERIES_FORMAT
        assert header["source"] == "main"
        assert records == sampler.records()

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "nope"}) + "\n")
        with pytest.raises(TimeseriesError):
            load_jsonl(str(path))

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TimeseriesError):
            load_jsonl(str(path))


class TestSeriesHelpers:
    def _sampled(self, registry):
        gauge = registry.gauge("v", "h")
        sampler = MetricsSampler(registry=registry)
        for quantum in range(3):
            gauge.set(quantum * 10)
            sampler.sample(quantum=quantum)
        return sampler.records()

    def test_series_values_by_quantum(self, registry):
        records = self._sampled(registry)
        assert series_values(records, "v") == [(0, 0.0), (1, 10.0), (2, 20.0)]

    def test_series_keys_union(self, registry):
        records = self._sampled(registry)
        registry.counter("late_total", "h").inc()
        sampler = MetricsSampler(registry=registry)
        sampler.sample(quantum=3)
        keys = series_keys(records + sampler.records())
        assert "v" in keys and "late_total" in keys
