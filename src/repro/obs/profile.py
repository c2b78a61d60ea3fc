"""Per-stage latency attribution: where does pipeline time actually go?

The metrics layer answers *how much* (counters, latency histograms) and
the span recorder answers *what happened* (a bounded event log); this
module answers *where the time goes*: a :class:`StageProfiler` folds the
exact same ``trace_span`` intervals the recorder sees into a cumulative
call tree — per stage path (``sim.quantum → source.emit →
analyzer.push[membus]``), wall **and** CPU time, with nested self/child
accounting so a parent's *self* time excludes everything attributed to
its children. There is no second set of timers: the span's single
``perf_counter`` read pair feeds both the recorder and the profiler, so
profiling cannot double-time a stage (``repro.obs.tracing``).

Two views come out of one run:

- **cumulative** — per stage path: calls, total/self wall, total/self
  CPU (the flamegraph view);
- **per-quantum** — a bounded ring of per-quantum rows mapping each
  stage label to its *self* time inside that quantum (spans stamped
  with a ``quantum`` attribute, which every pipeline span carries).

Exports: a ``repro.obs.profile/v1`` JSON document
(:meth:`StageProfiler.to_dict`), collapsed-stack flamegraph text
(:func:`render_collapsed` — feed to ``flamegraph.pl`` or speedscope),
speedscope JSON (:func:`to_speedscope` — drop the file on
https://speedscope.app), and a terminal top-N self-time table
(:func:`render_top`, the ``repro profile`` subcommand). Documents merge
(:meth:`StageProfiler.merge_dict`): the parallel trial runner ships one
profile per worker chunk back to the parent and folds them in canonical
chunk order, exactly like metrics snapshots (docs/PERFORMANCE.md).

Profiling is **opt-in** and off by default; while off, ``trace_span``
still returns the shared no-op context manager. Overhead with profiling
on is benchmarked in ``benchmarks/bench_obs_overhead.py`` (mode
``profile``) and must stay within 10% of fully-off with bit-identical
verdicts.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.errors import ReproError
from repro.obs import tracing as _tracing

#: Format tag of the profile JSON document.
PROFILE_FORMAT = "repro.obs.profile/v1"

#: Per-quantum rows kept; the oldest quantum's row is dropped (and
#: counted) past this bound.
MAX_QUANTA = 4096


class ProfileError(ReproError):
    """A profile document is malformed or not a profile at all."""


class StageStats:
    """Cumulative timing of one stage path across all its calls."""

    __slots__ = ("calls", "wall", "cpu", "child_wall", "child_cpu")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.child_wall = 0.0
        self.child_cpu = 0.0

    @property
    def self_wall(self) -> float:
        """Wall time not attributed to any nested child stage."""
        return max(0.0, self.wall - self.child_wall)

    @property
    def self_cpu(self) -> float:
        return max(0.0, self.cpu - self.child_cpu)


class _Frame:
    """One live (entered, not yet exited) stage on the profiler stack."""

    __slots__ = ("label", "path", "t0", "c0", "child_wall", "child_cpu",
                 "quantum")

    def __init__(self, label, path, t0, c0, quantum):
        self.label = label
        self.path = path
        self.t0 = t0
        self.c0 = c0
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.quantum = quantum


def _stage_label(name: str, attrs: Mapping[str, Any]) -> str:
    """Stage label: the span name, per-unit for unit-scoped spans."""
    unit = attrs.get("unit")
    return f"{name}[{unit}]" if unit is not None else name


class StageProfiler:
    """Attributes wall and CPU time across nested pipeline stages.

    Driven by the ``trace_span`` blocks already present in the pipeline
    (:mod:`repro.obs.tracing` calls :meth:`begin`/:meth:`end` around
    each span); never times anything itself beyond one CPU-clock read
    per span edge — the wall clock reads are the span's own.
    """

    def __init__(self, cpu_clock: Callable[[], float] = process_time):
        self._cpu_clock = cpu_clock
        self._stats: Dict[Tuple[str, ...], StageStats] = {}
        self._stack: List[_Frame] = []
        self._quanta: "OrderedDict[int, Dict[str, List[float]]]" = (
            OrderedDict()
        )
        self.quanta_dropped = 0
        self.spans_profiled = 0
        #: Wall/CPU folded in from merged documents (see merge_dict).
        self._merged_wall = 0.0
        self._merged_cpu = 0.0
        self.origin = perf_counter()
        self._cpu_origin = cpu_clock()

    # ------------------------------------------------------------ recording

    def begin(self, name: str, attrs: Mapping[str, Any], t0: float) -> None:
        """Enter a stage; ``t0`` is the span's own perf_counter read."""
        label = _stage_label(name, attrs)
        parent = self._stack[-1] if self._stack else None
        path = parent.path + (label,) if parent is not None else (label,)
        quantum = attrs.get("quantum")
        if quantum is None and parent is not None:
            quantum = parent.quantum
        self._stack.append(
            _Frame(label, path, t0, self._cpu_clock(), quantum)
        )

    def end(self, t1: float) -> None:
        """Exit the innermost stage; ``t1`` is the span's exit read."""
        if not self._stack:  # unbalanced exit: drop rather than corrupt
            return
        frame = self._stack.pop()
        wall = t1 - frame.t0
        cpu = self._cpu_clock() - frame.c0
        stats = self._stats.get(frame.path)
        if stats is None:
            stats = self._stats[frame.path] = StageStats()
        stats.calls += 1
        stats.wall += wall
        stats.cpu += cpu
        stats.child_wall += frame.child_wall
        stats.child_cpu += frame.child_cpu
        if self._stack:
            parent = self._stack[-1]
            parent.child_wall += wall
            parent.child_cpu += cpu
        self.spans_profiled += 1
        if frame.quantum is not None:
            self._note_quantum(
                int(frame.quantum),
                frame.label,
                wall - frame.child_wall,
                cpu - frame.child_cpu,
            )

    def _note_quantum(
        self, quantum: int, label: str, self_wall: float, self_cpu: float
    ) -> None:
        row = self._quanta.get(quantum)
        if row is None:
            if len(self._quanta) >= MAX_QUANTA:
                self._quanta.popitem(last=False)
                self.quanta_dropped += 1
            row = self._quanta[quantum] = {}
        cell = row.get(label)
        if cell is None:
            row[label] = [self_wall, self_cpu]
        else:
            cell[0] += self_wall
            cell[1] += self_cpu

    # ------------------------------------------------------------ inspection

    def stats(self) -> Dict[Tuple[str, ...], StageStats]:
        """The live cumulative stats, keyed by stage path tuple."""
        return dict(self._stats)

    def total_wall(self) -> float:
        """Wall seconds since this profiler was created (plus merges)."""
        return perf_counter() - self.origin + self._merged_wall

    def attributed_wall(self) -> float:
        """Wall time accounted to root stages (the coverage numerator)."""
        return sum(
            s.wall for path, s in self._stats.items() if len(path) == 1
        )

    # -------------------------------------------------------------- export

    def to_dict(self) -> Dict[str, Any]:
        """The ``repro.obs.profile/v1`` JSON document."""
        stages = []
        for path in sorted(self._stats):
            s = self._stats[path]
            stages.append({
                "path": list(path),
                "name": path[-1],
                "depth": len(path) - 1,
                "calls": s.calls,
                "wall_s": s.wall,
                "cpu_s": s.cpu,
                "self_wall_s": s.self_wall,
                "self_cpu_s": s.self_cpu,
            })
        rows = [
            {
                "quantum": quantum,
                "stages": {
                    label: {"self_wall_s": cell[0], "self_cpu_s": cell[1]}
                    for label, cell in sorted(row.items())
                },
            }
            for quantum, row in self._quanta.items()
        ]
        return {
            "format": PROFILE_FORMAT,
            "wall_s": self.total_wall(),
            "cpu_s": self._cpu_clock() - self._cpu_origin + self._merged_cpu,
            "spans": self.spans_profiled,
            "stages": stages,
            "quanta": {"rows": rows, "dropped": self.quanta_dropped},
        }

    def write_json(self, path: str) -> Dict[str, Any]:
        doc = self.to_dict()
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return doc

    # --------------------------------------------------------------- merge

    def merge_dict(self, doc: Mapping[str, Any]) -> None:
        """Fold another profile document into this profiler.

        Stage stats add per path; per-quantum rows add per quantum
        index; ``wall_s``/``cpu_s`` accumulate. This is how the trial
        runner gathers per-chunk worker profiles — merged in canonical
        chunk order, like metrics snapshots, so the result is identical
        at any job count (sums commute; the order discipline keeps the
        two artifact kinds on one contract).
        """
        _require_profile(doc)
        for entry in doc["stages"]:
            path = tuple(entry["path"])
            stats = self._stats.get(path)
            if stats is None:
                stats = self._stats[path] = StageStats()
            stats.calls += int(entry["calls"])
            stats.wall += float(entry["wall_s"])
            stats.cpu += float(entry["cpu_s"])
            stats.child_wall += float(entry["wall_s"]) - float(
                entry["self_wall_s"]
            )
            stats.child_cpu += float(entry["cpu_s"]) - float(
                entry["self_cpu_s"]
            )
        for row in doc["quanta"]["rows"]:
            for label, cell in row["stages"].items():
                self._note_quantum(
                    int(row["quantum"]), label,
                    float(cell["self_wall_s"]), float(cell["self_cpu_s"]),
                )
        self.quanta_dropped += int(doc["quanta"]["dropped"])
        self.spans_profiled += int(doc["spans"])
        self._merged_wall += float(doc["wall_s"])
        self._merged_cpu += float(doc["cpu_s"])


# ------------------------------------------------------------- global hook


def enable_profiling() -> StageProfiler:
    """Install a fresh :class:`StageProfiler` as the active span profiler.

    Every subsequent ``trace_span`` block feeds it, alongside the span
    recorder when tracing is also enabled — same clock reads, no double
    timing. :func:`repro.obs.tracing.get_profiler` returns it.
    """
    profiler = StageProfiler()
    _tracing.set_profiler(profiler)
    return profiler


def disable_profiling() -> None:
    """Stop profiling; ``trace_span`` reverts to recorder-only/no-op."""
    _tracing.set_profiler(None)


# ------------------------------------------------------------ doc helpers


def _require_profile(doc: Mapping[str, Any]) -> None:
    if not isinstance(doc, Mapping) or doc.get("format") != PROFILE_FORMAT:
        raise ProfileError(
            "not a repro.obs profile document "
            f"(format={doc.get('format')!r} if doc is a mapping)"
            if isinstance(doc, Mapping)
            else "not a repro.obs profile document"
        )


def load_profile(path: str) -> Dict[str, Any]:
    """Load a document written by ``--profile-out`` / :meth:`write_json`."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("format") != PROFILE_FORMAT:
        raise ProfileError(f"{path} is not a repro.obs profile document")
    return doc


def merge_profiles(docs) -> Dict[str, Any]:
    """Merge profile documents into one (order-insensitive sums)."""
    merged = StageProfiler()
    for doc in docs:
        merged.merge_dict(doc)
    out = merged.to_dict()
    # A pure merger contributes no measured time of its own: report the
    # summed input wall/CPU, not the merger's clock.
    out["wall_s"] = merged._merged_wall
    out["cpu_s"] = merged._merged_cpu
    return out


def render_collapsed(doc: Mapping[str, Any]) -> str:
    """Collapsed-stack flamegraph text: ``a;b;c <self-µs>`` per line.

    The weight is each path's *self* wall time in integer microseconds,
    the format ``flamegraph.pl`` and speedscope both ingest directly.
    """
    _require_profile(doc)
    lines = []
    for entry in doc["stages"]:
        micros = int(round(float(entry["self_wall_s"]) * 1e6))
        if micros <= 0:
            continue
        lines.append(f"{';'.join(entry['path'])} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(
    doc: Mapping[str, Any], name: str = "repro profile"
) -> Dict[str, Any]:
    """A speedscope ``sampled`` profile: one sample per stage path,
    weighted by its cumulative self wall time."""
    _require_profile(doc)
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}
    samples: List[List[int]] = []
    weights: List[float] = []
    for entry in doc["stages"]:
        weight = float(entry["self_wall_s"])
        if weight <= 0.0:
            continue
        stack = []
        for label in entry["path"]:
            idx = frame_index.get(label)
            if idx is None:
                idx = frame_index[label] = len(frames)
                frames.append({"name": label})
            stack.append(idx)
        samples.append(stack)
        weights.append(weight)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "activeProfileIndex": 0,
        "exporter": "repro.obs.profile",
        "name": name,
    }


def render_top(doc: Mapping[str, Any], n: int = 15) -> str:
    """Terminal table of the top-``n`` stages by cumulative self time."""
    _require_profile(doc)
    stages = sorted(
        doc["stages"], key=lambda e: float(e["self_wall_s"]), reverse=True
    )[:max(1, n)]
    total_self = sum(float(e["self_wall_s"]) for e in doc["stages"])
    wall = float(doc["wall_s"])
    header = (
        f"{'self s':>10}  {'self %':>6}  {'total s':>10}  {'cpu s':>10}  "
        f"{'calls':>8}  stage"
    )
    lines = [header, "-" * len(header)]
    for entry in stages:
        self_s = float(entry["self_wall_s"])
        share = 100.0 * self_s / total_self if total_self > 0 else 0.0
        indent = "  " * int(entry["depth"])
        lines.append(
            f"{self_s:10.6f}  {share:5.1f}%  {float(entry['wall_s']):10.6f}"
            f"  {float(entry['self_cpu_s']):10.6f}  {int(entry['calls']):8d}"
            f"  {indent}{entry['name']}"
        )
    attributed = sum(
        float(e["wall_s"]) for e in doc["stages"] if int(e["depth"]) == 0
    )
    coverage = 100.0 * attributed / wall if wall > 0 else 0.0
    lines.append(
        f"\n{doc['spans']} spans over {wall:.6f}s wall "
        f"({attributed:.6f}s attributed to stages, {coverage:.1f}%)"
    )
    dropped = int(doc["quanta"]["dropped"])
    if dropped:
        lines.append(f"per-quantum rows dropped by ring bound: {dropped}")
    return "\n".join(lines) + "\n"
