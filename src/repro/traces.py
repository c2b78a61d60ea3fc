"""Trace export and offline analysis.

In a real deployment the CC-Hunter daemon records the auditor's buffers
online and the (cheap) analyses run in the background; for forensics and
tuning, operators also want to *persist* a session's indicator events and
re-run detection offline, at the Δt each unit was recorded with. This module
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

from repro.config import CONTEXT_ID_BITS, context_ids_fit
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
#: archives (no manifest) still load, with checksum checks skipped.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

#: Scalar metadata keys: corruption here is never skippable.
_META_KEYS = ("format_version", "quantum_cycles", "n_quanta",
              "divider_dt", "multiplier_dt")
#: Event-time columns: sorted cycle stamps inside the recorded horizon.
_TIME_KEYS = ("bus_lock_times", "cache_times")
#: The parallel conflict-record columns, blanked together.
_CACHE_KEYS = ("cache_times", "cache_replacers", "cache_victims")
#: Dense per-Δt count records: key prefix and the metadata key of its Δt.
_DENSE_KEYS = (("divider_wait_counts_", "divider_dt"),
               ("multiplier_wait_counts_", "multiplier_dt"))

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


def _names_core(key: str) -> bool:
    """Whether a dense count record's key ends in a core index."""
    core = key.rsplit("_", 1)[1]
    return core.isascii() and core.isdigit()


def _dense_windows(key: str, meta: Dict[str, int]) -> Optional[int]:
    """Window count of a dense count record, None for any other key."""
    for prefix, dt_key in _DENSE_KEYS:
        if key.startswith(prefix):
            horizon = meta["quantum_cycles"] * meta["n_quanta"]
            return -(-horizon // meta[dt_key])
    return None


def _malformed_records(
    payload: Dict[str, np.ndarray], meta: Dict[str, int]
) -> Dict[str, str]:
    """Data records that replay cannot slice, each with what is wrong."""
    horizon = meta["quantum_cycles"] * meta["n_quanta"]
    bad: Dict[str, str] = {}
    for key in _TIME_KEYS:
        times = payload[key]
        if times.ndim != 1 or times.dtype.kind not in "iu":
            bad[key] = f"{times.dtype} {times.shape} is not an integer column"
        elif times.size and (
            times[0] < 0 or times[-1] >= horizon
            or bool(np.any(times[1:] < times[:-1]))
        ):
            bad[key] = f"times not sorted inside [0, {horizon})"
    if len({payload[key].shape for key in _CACHE_KEYS}) > 1:
        for key in _CACHE_KEYS:
            bad.setdefault(key, "cache columns differ in length")
    for key, counts in payload.items():
        windows = _dense_windows(key, meta)
        if windows is None:
            continue
        if not _names_core(key):
            bad[key] = "key does not end in a core index"
        elif counts.dtype.kind not in "iu" or counts.shape != (windows,):
            bad[key] = (
                f"{counts.dtype} {counts.shape} is not {windows} integer "
                "window counts"
            )
    return bad


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


def export_traces(machine: Machine, path: Union[str, Path]) -> TraceArchive:
    """Persist a machine's recorded indicator events to ``path`` (.npz)."""
    quanta = machine.quanta_completed
    if quanta <= 0:
        raise DetectionError("nothing recorded: run at least one quantum")
    horizon = quanta * machine.quantum_cycles
    times, reps, vics = machine.cache_miss_tap.window_reader().read(0, horizon)
    divider_dt = default_delta_t("divider")
    multiplier_dt = default_delta_t("multiplier")
    payload = {
        "format_version": np.array([_FORMAT_VERSION]),
        "quantum_cycles": np.array([machine.quantum_cycles]),
        "n_quanta": np.array([quanta]),
        "divider_dt": np.array([divider_dt]),
        "multiplier_dt": np.array([multiplier_dt]),
        "bus_lock_times": machine.bus_lock_tap.window_reader().read(
            0, horizon
        ),
        "cache_times": times,
        "cache_replacers": reps,
        "cache_victims": vics,
    }
    divider_counts: Dict[int, np.ndarray] = {}
    multiplier_counts: Dict[int, np.ndarray] = {}
    for core in range(machine.config.n_cores):
        div = machine.divider_wait_tap_for(core).window_reader().read_counts(
            divider_dt, 0, horizon
        ).expand().astype(np.int32)
        mul = machine.multiplier_wait_tap_for(core).window_reader().read_counts(
            multiplier_dt, 0, horizon
        ).expand().astype(np.int32)
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
    on_corruption: str = "raise",
) -> TraceArchive:
    """Load a trace archive written by :func:`export_traces`.

    When the archive carries a checksum manifest (format >= 2), every
    record's CRC32/dtype/shape is re-checked. Every archive's data
    records must also be ones replay can slice: event times sorted
    inside ``[0, horizon)``, the three conflict columns of one length,
    and each dense count record keyed by a core index and holding the
    ``⌈horizon / Δt⌉`` integer window counts export writes.
    ``on_corruption`` decides what a failing record does:

    - ``"raise"`` (default): :class:`TraceCorruptionError` naming every
      failing record — nothing half-loaded escapes;
    - ``"skip"``: failing *data* records are blanked (sparse events
      emptied, the conflict columns together; dense counts zeroed at
      their window count, or dropped when their key names no core), the
      affected unit is listed in ``TraceArchive.gaps``, and loading
      continues. Damaged metadata always raises — there is no safe way
      to guess the geometry.
    """
    if on_corruption not in ("raise", "skip"):
        raise DetectionError(
            f"on_corruption must be 'raise' or 'skip', got {on_corruption!r}"
        )
    src = Path(path)
    payload = _read_archive_payload(src)
    missing = [
        k for k in _META_KEYS + _CACHE_KEYS + ("bus_lock_times",)
        if k not in payload
    ]
    if missing:
        raise TraceCorruptionError(
            f"{src}: truncated archive, missing records {missing}"
        )
    version = int(payload["format_version"][0])
    if version not in _SUPPORTED_VERSIONS:
        raise TraceCorruptionError(
            f"{src}: trace archive format {version} not supported "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    problems: Dict[str, str] = {}
    if "checksum_manifest" in payload:
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
                problems[key] = "checksum manifest mismatch"
    bad_meta = [k for k in problems if k in _META_KEYS]
    if bad_meta:
        raise TraceCorruptionError(
            f"{src}: archive metadata failed integrity checks: {bad_meta}"
        )
    meta = {key: int(payload[key][0]) for key in _META_KEYS}
    if min(meta.values()) <= 0:
        raise TraceCorruptionError(
            f"{src}: archive metadata must be positive, got {meta}"
        )
    for key, why in _malformed_records(payload, meta).items():
        problems.setdefault(key, why)
    gaps: List[str] = []
    if problems:
        if on_corruption == "raise":
            listed = "; ".join(
                f"{key} ({why})" for key, why in sorted(problems.items())
            )
            raise TraceCorruptionError(
                f"{src}: records failed integrity checks: {listed} "
                "(re-record the trace, or load with on_corruption='skip')"
            )
        # Skip-and-continue: blank each failing record and carry a gap.
        # The parallel cache_* arrays are blanked together — a partial
        # conflict log would silently mislabel records.
        if any(key in _CACHE_KEYS for key in problems):
            for key in _CACHE_KEYS:
                problems.setdefault(key, "blanked with the cache columns")
        for key in sorted(problems):
            windows = _dense_windows(key, meta)
            if windows is None:
                payload[key] = np.zeros(0, dtype=np.int64)
            elif _names_core(key):
                payload[key] = np.zeros(windows, dtype=np.int64)
            else:
                del payload[key]
            channel = _gap_channel(key)
            if channel not in gaps:
                gaps.append(channel)
            _log.warning(
                "%s: record %r failed integrity check (%s); blanked "
                "(unit %r will replay degraded)",
                src, key, problems[key], channel,
            )
    for key in ("cache_replacers", "cache_victims"):
        if payload[key].dtype.kind not in "iu":
            raise TraceCorruptionError(
                f"{src}: {key} must hold integer context ids, got dtype "
                f"{payload[key].dtype}"
            )
        if not context_ids_fit(payload[key]):
            raise TraceCorruptionError(
                f"{src}: {key} holds context ids that do not fit in "
                f"{CONTEXT_ID_BITS} bits"
            )
    divider_counts: Dict[int, np.ndarray] = {}
    multiplier_counts: Dict[int, np.ndarray] = {}
    for key in payload:
        if key.startswith("divider_wait_counts_"):
            divider_counts[int(key.rsplit("_", 1)[1])] = payload[key]
        elif key.startswith("multiplier_wait_counts_"):
            multiplier_counts[int(key.rsplit("_", 1)[1])] = payload[key]
    return TraceArchive(
        quantum_cycles=meta["quantum_cycles"],
        n_quanta=meta["n_quanta"],
        # Event timestamps re-enter the columnar pipeline here: widen
        # narrow integers, reject float columns loudly (see
        # repro.util.dtypes).
        bus_lock_times=ensure_int64(
            payload["bus_lock_times"], "bus lock times"
        ),
        divider_dt=meta["divider_dt"],
        divider_wait_counts=divider_counts,
        multiplier_dt=meta["multiplier_dt"],
        multiplier_wait_counts=multiplier_counts,
        cache_times=ensure_int64(payload["cache_times"], "cache times"),
        cache_replacers=payload["cache_replacers"],
        cache_victims=payload["cache_victims"],
        gaps=tuple(gaps),
    )


# ----------------------------------------------------------------- replay


class ArchiveEventSource:
    """EventSource replaying a :class:`TraceArchive` quantum by quantum.

    The second implementation of the pipeline's source contract (the
    simulator's :class:`~repro.pipeline.source.MachineEventSource` is the
    first): each recorded unit becomes a burst channel at the Δt it was
    recorded with (the membus default for the exact bus-lock times),
    plus the conflict channel, so archives flow through the *same*
    analyzers as live sessions. Unlike the online auditor (limited to two
    monitor slots), replay offers every recorded unit — the
    "super-secure" configuration the paper mentions, affordable offline
    because the data is already captured. Functional-unit channels that
    recorded no events at all are skipped, matching the report layout of
    live two-slot sessions, unless a skip-and-continue load blanked them:
    those replay their zeroed counts, degraded.
    """

    def __init__(
        self,
        archive: TraceArchive,
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

        self._bus_dt = default_delta_t("membus")
        self._specs.append(
            ChannelSpec("membus", ChannelKind.BURST, self._bus_dt)
        )
        for kind, dt, per_core in (
            ("divider", archive.divider_dt, archive.divider_wait_counts),
            ("multiplier", archive.multiplier_dt,
             archive.multiplier_wait_counts),
        ):
            for core, counts in sorted(per_core.items()):
                name = f"{kind}(core {core})"
                if not counts.sum() and name not in archive.gaps:
                    continue
                self._specs.append(ChannelSpec(name, ChannelKind.BURST, dt))
                # Archives store dense counts as int32 for compactness;
                # the pipeline's columnar contract is int64 everywhere,
                # so widen at the rehydration boundary (floats fail
                # loudly).
                self._dense[name] = (
                    dt, ensure_int64(counts, f"{name} counts")
                )
        self._specs.append(ChannelSpec("cache", ChannelKind.CONFLICT))

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
    window_fraction: float = 1.0,
    sinks: Iterable[VerdictSink] = (),
    track_detection_latency: bool = False,
    injectors: Iterable[object] = (),
    capture_evidence: bool = False,
) -> DetectionReport:
    """Run the full CC-Hunter analysis offline over a trace archive.

    Builds an :class:`ArchiveEventSource` and replays it, at the Δt each
    unit was recorded with, through a
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
    source = ArchiveEventSource(archive)
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
