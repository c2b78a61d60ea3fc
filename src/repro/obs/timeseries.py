"""Metrics time series: periodic registry snapshots as bounded JSONL.

A :class:`~repro.obs.metrics.MetricsRegistry` snapshot is a point in
time; leakage auditing is an *ongoing* process, so operators need the
trajectory — when did the first-detection gauge move, how fast did the
event counters climb, when did fault counters start ticking. A
:class:`MetricsSampler` turns a registry into that trajectory:

- **one sample per call** — :meth:`MetricsSampler.sample` snapshots the
  registry; :class:`~repro.pipeline.sinks.TimeseriesSink` calls it once
  per quantum and once at close, so a session's series is exact and
  deterministic in its quanta;
- **bounded retention** — samples live in a ring buffer of
  :data:`CAPACITY`, newest kept, evictions counted, so a sampler can
  run forever;
- **flat records** — each sample flattens the registry into
  ``{series_key: value}`` where ``series_key`` is the Prometheus-style
  ``name{label="value",...}`` string; histograms contribute
  ``name_sum`` / ``name_count`` series. Consumers never re-parse the
  nested snapshot schema.

The JSONL file (:data:`TIMESERIES_FORMAT`) starts with a header line
and holds one sample per line — append-friendly, tail-friendly, and
diff-friendly. ``examples/forensic_report.py`` and the ``repro report``
timeseries section consume it; the schema is in docs/FORENSICS.md.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, get_default

#: Format tag on a time-series JSONL header line.
TIMESERIES_FORMAT = "repro.obs.timeseries/v1"

#: Ring capacity: at one sample per quantum this covers well past the
#: clustering horizon.
CAPACITY = 4096


class TimeseriesError(ReproError):
    """A time-series JSONL file is malformed."""


def _series_key(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{labels[k]}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def flatten_snapshot(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a registry snapshot into ``{series_key: value}``.

    Counters and gauges map to their value; each histogram series maps
    to two keys, ``<name>_sum`` and ``<name>_count``. Keys follow the
    Prometheus exposition syntax so time-series rows and scrape output
    agree on naming.
    """
    flat: Dict[str, float] = {}
    for name, family in snapshot.get("metrics", {}).items():
        kind = family.get("type")
        for series in family.get("series", ()):
            labels = series.get("labels", {})
            if kind == "histogram":
                flat[_series_key(f"{name}_sum", labels)] = float(
                    series["sum"]
                )
                flat[_series_key(f"{name}_count", labels)] = float(
                    series["count"]
                )
            else:
                flat[_series_key(name, labels)] = float(series["value"])
    return flat


class MetricsSampler:
    """Snapshots a registry into a bounded sample ring, once per call."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        source: str = "main",
        clock: Callable[[], float] = time.monotonic,
    ):
        self._registry = registry
        self.source = source
        self._clock = clock
        self._samples: Deque[Dict[str, Any]] = deque(maxlen=CAPACITY)
        self.samples_taken = 0
        self.samples_dropped = 0
        self._t0: Optional[float] = None
        m = self.registry
        labels = {"source": source}
        self._m_samples = m.counter(
            "cchunter_sampler_samples_total",
            "metrics time-series samples taken",
            labels,
        )
        self._m_dropped = m.counter(
            "cchunter_sampler_dropped_total",
            "time-series samples evicted by the sampler's ring bound",
            labels,
        )

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_default()

    # --------------------------------------------------------------- sampling

    def sample(
        self, quantum: Optional[int] = None, label: Optional[str] = None
    ) -> Dict[str, Any]:
        """Take one sample and return the record."""
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        self._m_samples.inc()
        record = {
            "seq": self.samples_taken,
            "t_s": now - self._t0,
            "quantum": None if quantum is None else int(quantum),
            "source": self.source,
            "values": flatten_snapshot(self.registry.to_dict()),
        }
        if label is not None:
            record["label"] = label
        if len(self._samples) == self._samples.maxlen:
            self.samples_dropped += 1
            self._m_dropped.inc()
        self._samples.append(record)
        self.samples_taken += 1
        return record

    # ---------------------------------------------------------------- access

    def records(self) -> List[Dict[str, Any]]:
        """Retained samples, oldest first."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    # ------------------------------------------------------------------- I/O

    def header(self) -> Dict[str, Any]:
        return {
            "format": TIMESERIES_FORMAT,
            "source": self.source,
            "capacity": CAPACITY,
            "samples_taken": self.samples_taken,
            "samples_dropped": self.samples_dropped,
        }

    def write_jsonl(self, path: str) -> int:
        """Write header + retained samples as JSON lines; returns count."""
        records = self.records()
        with open(path, "w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def load_jsonl(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a time-series JSONL file; returns ``(header, records)``."""
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TimeseriesError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            if lineno == 1:
                if obj.get("format") != TIMESERIES_FORMAT:
                    raise TimeseriesError(
                        f"{path} is not a metrics time series "
                        f"(expected format {TIMESERIES_FORMAT!r})"
                    )
                header = obj
            else:
                records.append(obj)
    if header is None:
        raise TimeseriesError(f"{path} is empty")
    return header, records


def series_values(
    records: Iterable[Dict[str, Any]], series_key: str
) -> List[Tuple[float, float]]:
    """Extract one series as ``[(x, value)]`` from sample records.

    ``x`` is the record's quantum when stamped, else its ``t_s``.
    Records that never saw the series are skipped.
    """
    points: List[Tuple[float, float]] = []
    for record in records:
        values = record.get("values", {})
        if series_key in values:
            x = record.get("quantum")
            if x is None:
                x = record.get("t_s", 0.0)
            points.append((float(x), float(values[series_key])))
    return points


def series_keys(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Every series key observed across the records, sorted."""
    keys = set()
    for record in records:
        keys.update(record.get("values", {}))
    return sorted(keys)
