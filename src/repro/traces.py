"""Trace export and offline analysis.

In a real deployment the CC-Hunter daemon records the auditor's buffers
online and the (cheap) analyses run in the background; for forensics and
tuning, operators also want to *persist* a session's indicator events and
re-run detection offline with different parameters. This module
round-trips a machine's taps through a single ``.npz`` archive and
replays the stored trains through the same streaming pipeline the live
detector uses (:class:`ArchiveEventSource`) — no simulator required on
the analysis side, and no second analysis code path to drift.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union
from zipfile import BadZipFile

import numpy as np

from repro.core.density import default_delta_t
from repro.core.report import DetectionReport
from repro.errors import DetectionError, TraceCorruptionError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_default
from repro.obs.tracing import trace_span
from repro.pipeline.session import build_session_from_specs
from repro.pipeline.sinks import VerdictSink
from repro.pipeline.source import (
    ChannelKind,
    ChannelSpec,
    ConflictRecords,
    ObservationConsumer,
    QuantumObservation,
)
from repro.sim.machine import Machine
from repro.util.dtypes import ensure_int64
from repro.util.runs import WindowCounts

#: Version 2 adds the per-record CRC32 ``checksum_manifest``; version 1
#: archives (no manifest) still load, with integrity checks skipped.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

#: Scalar metadata keys: corruption here is never skippable.
_META_KEYS = ("format_version", "quantum_cycles", "n_quanta",
              "divider_dt", "multiplier_dt")

_log = get_logger("traces")


def _crc(arr: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (dtype included via the manifest)."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def _checksum_manifest(payload: Dict[str, np.ndarray]) -> str:
    """JSON manifest of per-record CRC32 / dtype / shape."""
    manifest = {
        key: {
            "crc32": _crc(value),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
        for key, value in payload.items()
    }
    return json.dumps(manifest, sort_keys=True)


def _gap_channel(key: str) -> str:
    """Unit name a corrupted record key maps to (for gap reporting)."""
    if key == "bus_lock_times":
        return "membus"
    if key.startswith("cache_"):
        return "cache"
    for kind in ("divider", "multiplier"):
        prefix = f"{kind}_wait_counts_"
        if key.startswith(prefix):
            return f"{kind}(core {key[len(prefix):]})"
    return key


@dataclass
class TraceArchive:
    """A recorded monitoring session: indicator events plus metadata.

    Sparse events (bus locks, conflict misses) keep exact timestamps.
    The dense functional-unit wait events are stored as *exact per-Δt
    counts* at each unit's default Δt — the quantity every burst analysis
    consumes — which keeps archives compact without thinning densities.

    ``gaps`` lists the units whose records failed integrity checks and
    were blanked by a skip-and-continue load (see :func:`load_traces`);
    replay stamps matching ``corrupt:<unit>`` fault tags so analyzers
    degrade instead of silently trusting zeroed data.
    """

    quantum_cycles: int
    n_quanta: int
    bus_lock_times: np.ndarray
    divider_dt: int
    divider_wait_counts: Dict[int, np.ndarray]
    multiplier_dt: int
    multiplier_wait_counts: Dict[int, np.ndarray]
    cache_times: np.ndarray
    cache_replacers: np.ndarray
    cache_victims: np.ndarray
    gaps: Tuple[str, ...] = field(default=())

    @property
    def horizon(self) -> int:
        return self.quantum_cycles * self.n_quanta


def export_traces(
    machine: Machine,
    path: Union[str, Path],
    n_quanta: Optional[int] = None,
) -> TraceArchive:
    """Persist a machine's recorded indicator events to ``path`` (.npz)."""
    quanta = n_quanta if n_quanta is not None else machine.quanta_completed
    if quanta <= 0:
        raise DetectionError("nothing recorded: run at least one quantum")
    horizon = quanta * machine.quantum_cycles
    times, reps, vics = machine.cache_miss_tap.records_in(0, horizon)
    divider_dt = default_delta_t("divider")
    multiplier_dt = default_delta_t("multiplier")
    payload = {
        "format_version": np.array([_FORMAT_VERSION]),
        "quantum_cycles": np.array([machine.quantum_cycles]),
        "n_quanta": np.array([quanta]),
        "divider_dt": np.array([divider_dt]),
        "multiplier_dt": np.array([multiplier_dt]),
        "bus_lock_times": machine.bus_lock_tap.times_in(0, horizon),
        "cache_times": times,
        "cache_replacers": reps,
        "cache_victims": vics,
    }
    divider_counts: Dict[int, np.ndarray] = {}
    multiplier_counts: Dict[int, np.ndarray] = {}
    for core in range(machine.config.n_cores):
        div = machine.divider_wait_tap_for(core).density_counts(
            divider_dt, 0, horizon
        ).astype(np.int32)
        mul = machine.multiplier_wait_tap_for(core).density_counts(
            multiplier_dt, 0, horizon
        ).astype(np.int32)
        divider_counts[core] = div
        multiplier_counts[core] = mul
        payload[f"divider_wait_counts_{core}"] = div
        payload[f"multiplier_wait_counts_{core}"] = mul
    # The integrity manifest covers every record written above; it is
    # excluded from itself (the CRCs protect the data, zip structure
    # protects the manifest).
    payload["checksum_manifest"] = np.array(_checksum_manifest(payload))
    np.savez_compressed(Path(path), **payload)
    return TraceArchive(
        quantum_cycles=machine.quantum_cycles,
        n_quanta=quanta,
        bus_lock_times=payload["bus_lock_times"],
        divider_dt=divider_dt,
        divider_wait_counts=divider_counts,
        multiplier_dt=multiplier_dt,
        multiplier_wait_counts=multiplier_counts,
        cache_times=times,
        cache_replacers=reps,
        cache_victims=vics,
    )


def _read_archive_payload(path: Path) -> Dict[str, np.ndarray]:
    """Decode every record in the archive, mapping container damage to
    :class:`TraceCorruptionError` (missing files propagate as OSError)."""
    try:
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise
    except (BadZipFile, zlib.error, ValueError, EOFError, OSError) as exc:
        raise TraceCorruptionError(
            f"{path}: not a readable trace archive ({exc})"
        ) from exc


def load_traces(
    path: Union[str, Path],
    verify: bool = True,
    on_corruption: str = "raise",
) -> TraceArchive:
    """Load a trace archive written by :func:`export_traces`.

    When the archive carries a checksum manifest (format >= 2) and
    ``verify`` is on, every record's CRC32/dtype/shape is re-checked.
    ``on_corruption`` decides what a mismatch does:

    - ``"raise"`` (default): :class:`TraceCorruptionError` naming every
      damaged record — nothing half-loaded escapes;
    - ``"skip"``: damaged *data* records are blanked (sparse events
      emptied, dense counts zeroed), the affected unit is listed in
      ``TraceArchive.gaps``, and loading continues. Damaged metadata
      always raises — there is no safe way to guess the geometry.
    """
    if on_corruption not in ("raise", "skip"):
        raise DetectionError(
            f"on_corruption must be 'raise' or 'skip', got {on_corruption!r}"
        )
    src = Path(path)
    payload = _read_archive_payload(src)
    missing = [k for k in _META_KEYS if k not in payload]
    if missing:
        raise TraceCorruptionError(
            f"{src}: truncated archive, missing metadata {missing}"
        )
    version = int(payload["format_version"][0])
    if version not in _SUPPORTED_VERSIONS:
        raise TraceCorruptionError(
            f"{src}: trace archive format {version} not supported "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    corrupt: List[str] = []
    if verify and "checksum_manifest" in payload:
        manifest: Dict[str, Any] = json.loads(
            str(payload["checksum_manifest"][()])
        )
        absent = [k for k in manifest if k not in payload]
        if absent:
            raise TraceCorruptionError(
                f"{src}: truncated archive, records missing: {sorted(absent)}"
            )
        for key, expected in sorted(manifest.items()):
            value = payload[key]
            if (
                str(value.dtype) != expected["dtype"]
                or list(value.shape) != expected["shape"]
                or _crc(value) != expected["crc32"]
            ):
                corrupt.append(key)
    bad_meta = [k for k in corrupt if k in _META_KEYS]
    if bad_meta:
        raise TraceCorruptionError(
            f"{src}: archive metadata failed integrity checks: {bad_meta}"
        )
    gaps: List[str] = []
    if corrupt:
        if on_corruption == "raise":
            raise TraceCorruptionError(
                f"{src}: records failed integrity checks: {sorted(corrupt)} "
                "(re-record the trace, or load with on_corruption='skip')"
            )
        # Skip-and-continue: blank each damaged record and carry a gap.
        # The parallel cache_* arrays are blanked together — a partial
        # conflict log would silently mislabel records.
        if any(k.startswith("cache_") for k in corrupt):
            corrupt = sorted(set(corrupt) | {
                k for k in payload if k.startswith("cache_")
            })
        for key in corrupt:
            arr = payload[key]
            # Dense per-Δt counts keep their length (zeroed); sparse
            # event/record arrays are emptied.
            payload[key] = (
                np.zeros_like(arr) if "wait_counts" in key else arr[:0]
            )
            channel = _gap_channel(key)
            if channel not in gaps:
                gaps.append(channel)
            _log.warning(
                "%s: record %r failed integrity check; blanked "
                "(unit %r will replay degraded)", src, key, channel,
            )
    divider_counts: Dict[int, np.ndarray] = {}
    multiplier_counts: Dict[int, np.ndarray] = {}
    for key in payload:
        if key.startswith("divider_wait_counts_"):
            divider_counts[int(key.rsplit("_", 1)[1])] = payload[key]
        elif key.startswith("multiplier_wait_counts_"):
            multiplier_counts[int(key.rsplit("_", 1)[1])] = payload[key]
    return TraceArchive(
        quantum_cycles=int(payload["quantum_cycles"][0]),
        n_quanta=int(payload["n_quanta"][0]),
        # Event timestamps re-enter the columnar pipeline here: widen
        # narrow integers, reject float columns loudly (see
        # repro.util.dtypes).
        bus_lock_times=ensure_int64(
            payload["bus_lock_times"], "bus lock times"
        ),
        divider_dt=int(payload["divider_dt"][0]),
        divider_wait_counts=divider_counts,
        multiplier_dt=int(payload["multiplier_dt"][0]),
        multiplier_wait_counts=multiplier_counts,
        cache_times=ensure_int64(payload["cache_times"], "cache times"),
        cache_replacers=payload["cache_replacers"],
        cache_victims=payload["cache_victims"],
        gaps=tuple(gaps),
    )


# ----------------------------------------------------------------- replay


def _rebin_counts(counts: np.ndarray, base_dt: int, dt: int) -> np.ndarray:
    """Sum adjacent per-Δt windows to a coarser Δt (integer multiple)."""
    if dt % base_dt != 0:
        raise DetectionError(
            f"offline Δt {dt} must be a multiple of the recorded "
            f"base Δt {base_dt}"
        )
    factor = dt // base_dt
    if factor == 1:
        return counts
    trim = (counts.size // factor) * factor
    return counts[:trim].reshape(-1, factor).sum(axis=1)


class ArchiveEventSource:
    """EventSource replaying a :class:`TraceArchive` quantum by quantum.

    The second implementation of the pipeline's source contract (the
    simulator's :class:`~repro.pipeline.source.MachineEventSource` is the
    first): each recorded unit becomes a burst channel at its stored (or
    rebinned) Δt, plus the conflict channel, so archives flow through the
    *same* analyzers as live sessions. Unlike the online auditor (limited
    to two monitor slots), replay offers every recorded unit — the
    "super-secure" configuration the paper mentions, affordable offline
    because the data is already captured.

    ``include_idle`` keeps functional-unit channels that recorded no
    events at all (by default they are skipped, matching the report
    layout of live two-slot sessions).
    """

    def __init__(
        self,
        archive: TraceArchive,
        bus_dt: Optional[int] = None,
        divider_dt: Optional[int] = None,
        multiplier_dt: Optional[int] = None,
        include_idle: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.archive = archive
        self._specs: List[ChannelSpec] = []
        #: name -> (dt, whole-horizon per-Δt counts) for dense channels.
        self._dense: Dict[str, Tuple[int, np.ndarray]] = {}
        self._consumers: List[ObservationConsumer] = []
        self.metrics = metrics if metrics is not None else get_default()
        #: Fault tags stamped on every replayed observation: units whose
        #: records were blanked by a skip-and-continue load.
        self._fault_tags: Tuple[str, ...] = tuple(
            f"corrupt:{unit}" for unit in archive.gaps
        )

        self._bus_dt = bus_dt or default_delta_t("membus")
        self._specs.append(
            ChannelSpec("membus", ChannelKind.BURST, self._bus_dt)
        )
        for core, counts in sorted(archive.divider_wait_counts.items()):
            if counts.sum() or include_idle:
                dt = divider_dt or archive.divider_dt
                self._add_dense(
                    f"divider(core {core})",
                    _rebin_counts(counts, archive.divider_dt, dt),
                    dt,
                )
        for core, counts in sorted(archive.multiplier_wait_counts.items()):
            if counts.sum() or include_idle:
                dt = multiplier_dt or archive.multiplier_dt
                self._add_dense(
                    f"multiplier(core {core})",
                    _rebin_counts(counts, archive.multiplier_dt, dt),
                    dt,
                )
        self._specs.append(ChannelSpec("cache", ChannelKind.CONFLICT))

    def _add_dense(self, name: str, counts: np.ndarray, dt: int) -> None:
        self._specs.append(ChannelSpec(name, ChannelKind.BURST, dt))
        # Archives store dense counts as int32 for compactness; the
        # pipeline's columnar contract is int64 everywhere, so widen at
        # the rehydration boundary (floats fail loudly — an archive with
        # fractional counts is corrupt, not rescalable).
        self._dense[name] = (dt, ensure_int64(counts, f"{name} counts"))

    @property
    def quantum_cycles(self) -> int:
        return self.archive.quantum_cycles

    def channels(self) -> Tuple[ChannelSpec, ...]:
        return tuple(self._specs)

    def subscribe(self, consumer: ObservationConsumer) -> None:
        self._consumers.append(consumer)

    def _observation(self, quantum: int) -> QuantumObservation:
        archive = self.archive
        t0 = quantum * archive.quantum_cycles
        t1 = t0 + archive.quantum_cycles
        counts: Dict[str, WindowCounts] = {}
        times = archive.bus_lock_times
        lo = np.searchsorted(times, t0, side="left")
        hi = np.searchsorted(times, t1, side="left")
        counts["membus"] = WindowCounts(np.bincount(
            (times[lo:hi] - t0) // self._bus_dt,
            minlength=-(-archive.quantum_cycles // self._bus_dt),
        ))
        for name, (dt, dense) in self._dense.items():
            per_quantum = -(-archive.quantum_cycles // dt)
            counts[name] = WindowCounts(
                dense[quantum * per_quantum:(quantum + 1) * per_quantum]
            )
        lo = np.searchsorted(archive.cache_times, t0, side="left")
        hi = np.searchsorted(archive.cache_times, t1, side="left")
        conflicts = ConflictRecords(
            times=archive.cache_times[lo:hi],
            replacers=archive.cache_replacers[lo:hi],
            victims=archive.cache_victims[lo:hi],
        )
        return QuantumObservation(
            quantum=quantum, t0=t0, t1=t1, counts=counts,
            conflicts=conflicts, faults=self._fault_tags,
        )

    def __iter__(self) -> Iterator[QuantumObservation]:
        for quantum in range(self.archive.n_quanta):
            yield self._observation(quantum)

    def replay(self) -> None:
        """Push every recorded quantum to the subscribed consumers."""
        timed = self.metrics.enabled
        t_start = perf_counter() if timed else 0.0
        with trace_span("replay.run", n_quanta=self.archive.n_quanta):
            for obs in self:
                for consumer in self._consumers:
                    consumer.push_quantum(obs)
        if timed:
            elapsed = perf_counter() - t_start
            self.metrics.counter(
                "cchunter_replay_quanta_total",
                "archived quanta replayed through the pipeline",
            ).inc(self.archive.n_quanta)
            self.metrics.counter(
                "cchunter_replay_seconds_total",
                "wall-clock seconds spent replaying archives",
            ).inc(elapsed)
            if elapsed > 0:
                self.metrics.gauge(
                    "cchunter_replay_quanta_per_second",
                    "replay throughput of the last replay() call",
                ).set(self.archive.n_quanta / elapsed)
            _log.info(
                "replayed %d quanta in %.3fs",
                self.archive.n_quanta,
                elapsed,
            )


def analyze_traces(
    archive: TraceArchive,
    bus_dt: Optional[int] = None,
    divider_dt: Optional[int] = None,
    multiplier_dt: Optional[int] = None,
    window_fraction: float = 1.0,
    sinks: Iterable[VerdictSink] = (),
    track_detection_latency: bool = False,
    injectors: Iterable[object] = (),
    capture_evidence: bool = False,
) -> DetectionReport:
    """Run the full CC-Hunter analysis offline over a trace archive.

    Builds an :class:`ArchiveEventSource` and replays it through a
    :func:`~repro.pipeline.session.build_session_from_specs` session — the
    identical analyzer code path live sessions use, so offline verdicts
    cannot drift from online ones. ``sinks`` (e.g. a
    :class:`~repro.pipeline.sinks.MetricsSink`) and
    ``track_detection_latency`` make the replayed session evaluate
    verdicts eagerly each quantum, exactly like a live eager session.

    ``injectors`` (see :mod:`repro.faults`) perturb the replayed stream
    through a :class:`~repro.faults.FaultInjectingSource` before it
    reaches the analyzers — replaying one recorded session under many
    deterministic fault scenarios.
    """
    source = ArchiveEventSource(
        archive,
        bus_dt=bus_dt,
        divider_dt=divider_dt,
        multiplier_dt=multiplier_dt,
    )
    feed = source
    injectors = list(injectors)
    if injectors:
        from repro.faults.source import FaultInjectingSource

        feed = FaultInjectingSource(source, injectors)
    session = build_session_from_specs(
        feed.channels(),
        window_fraction=window_fraction,
        sinks=sinks,
        track_detection_latency=track_detection_latency,
        capture_evidence=capture_evidence,
    )
    feed.subscribe(session)
    source.replay()
    if session.sinks:
        return session.close()
    return session.current_verdicts(with_evidence=capture_evidence)
