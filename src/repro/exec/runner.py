"""Parallel trial execution: deterministic process-pool fan-out.

CC-Hunter's evaluation is built from sweeps of *independent* simulator
trials — Figure 12 alone replays hundreds of random messages per channel
kind — and every trial is a pure function of its parameters and seed.
That makes the sweeps embarrassingly parallel, and this module is the
one place the repo exploits it: a :class:`TrialRunner` fans a
:class:`TrialSpec` out over a ``ProcessPoolExecutor`` while guaranteeing
that the *results are bit-identical no matter how many workers run them*.

The determinism contract rests on three invariants:

1. **Per-trial seeds are a pure function of (base seed, spec key, trial
   index)** — derived through :func:`repro.util.rng.derive_rng`'s
   ``SeedSequence`` spawning, never from execution order, worker
   identity, or shared generator state (:func:`trial_seed`).
2. **Trials never communicate.** Each worker installs a fresh default
   :class:`~repro.obs.metrics.MetricsRegistry` before running a chunk,
   so instrumentation cannot leak between trials or processes.
3. **Results *and* worker metrics are gathered in canonical
   (submission) order**, whatever order the chunks actually finish in.
   Counter and histogram merges commute, but gauge merges are
   last-writer-wins — so the runner defers every snapshot merge until
   all chunks are in and replays them sorted by first trial index. A
   gauge set by trial 7 therefore beats one set by trial 3 in the
   parent registry for every ``jobs`` value, not just whichever chunk
   happened to finish last.

``jobs=1`` (the default) runs everything in-process with no pickling —
the exact same code path the workers execute — so ``run_trials(spec, n,
jobs=1)`` and ``jobs=N`` return equal results; the equivalence tests in
``tests/exec/test_equivalence.py`` hold every rewired figure sweep to
that.

Mechanics (see docs/PERFORMANCE.md for the knobs):

- trials are submitted in **chunks** sized to amortize process spawn and
  pickle costs (``chunk_size``, default ≈ 4 chunks per worker);
- a **crashed worker** (e.g. OOM-killed) breaks the pool; the runner
  rebuilds it and resubmits the unfinished chunks, bounded by
  ``max_chunk_retries`` per chunk, then raises :class:`ExecError`;
- per-worker metrics snapshots are **merged back into the parent
  registry** (:meth:`MetricsRegistry.merge`) in canonical chunk order
  after the sweep (invariant 3), and the runner records per-trial wall
  times in a ``cchunter_trial_seconds`` histogram plus chunk/retry
  counters; an optional :class:`~repro.obs.timeseries.MetricsSampler`
  passed as ``sampler=`` takes one labeled sample after each canonical
  merge, yielding a deterministic per-chunk metrics time series;
- an optional ``progress(done, total)`` callback fires in the parent as
  chunks complete (completion order — only the *results* are ordered).

Failure containment (``TrialSpec.timeout_s``, see docs/ROBUSTNESS.md):
giving a spec a per-trial wall-clock budget switches the runner into
*recording* mode — a trial that exceeds the budget, raises, or loses its
worker no longer aborts the sweep; its canonical result slot holds a
:class:`TrialFailure` (``kind`` ∈ ``timeout`` / ``raised`` /
``crashed``) and the sweep completes. Timeouts are enforced inside the
worker with ``signal.setitimer`` (POSIX main thread); a parent-side
backstop reaps whole chunks whose worker never reports back. Failures
are tallied in ``cchunter_trial_failures_total{kind=...}``. With
``timeout_s=None`` (the default) nothing changes: exceptions propagate
and crashed chunks retry then raise, exactly as before.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import derive_rng, spawn_seed


class ExecError(ReproError):
    """Trial execution failed (bad spec, or a chunk exhausted its retries)."""


#: Histogram buckets for per-trial wall time: 1 ms .. 60 s.
TRIAL_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0, 30.0, 60.0,
)


@dataclass(frozen=True)
class TrialFailure:
    """A trial that produced no result; sits in its canonical slot.

    ``kind`` classifies the failure:

    - ``"timeout"`` — exceeded ``TrialSpec.timeout_s`` (worker alarm or
      parent backstop);
    - ``"raised"`` — the trial function raised an ordinary exception;
    - ``"crashed"`` — the worker process died (e.g. OOM-killed) and the
      chunk exhausted its retries.
    """

    index: int
    kind: str
    message: str
    elapsed_s: float

    def __bool__(self) -> bool:
        # Failures are falsy so `r for r in results if r` and
        # `filter(None, results)` skip them like missing values.
        return False


class _TrialTimeout(Exception):
    """Internal: raised by the SIGALRM handler inside a worker."""


@contextmanager
def _trial_alarm(timeout_s: Optional[float]):
    """Arm a per-trial wall-clock alarm, where the platform allows it.

    ``signal.setitimer`` only works on POSIX and only in the main
    thread — which is exactly where pool workers run trial functions.
    Elsewhere this degrades to a no-op and the parent-side backstop in
    ``_run_pooled`` is the only guard.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(_signum, _frame):
        raise _TrialTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def trial_seed(base_seed: int, key: str, index: int) -> int:
    """The seed of trial ``index`` in a sweep: pure, order-independent.

    Derived via ``SeedSequence`` spawning keyed by ``(key, index)``, so
    the same ``(base_seed, key, index)`` triple always yields the same
    63-bit seed regardless of which process computes it or in what
    order — the foundation of the ``jobs=1 == jobs=N`` guarantee.
    """
    return spawn_seed(derive_rng(base_seed, "exec.trial", key, index))


@dataclass(frozen=True)
class TrialSpec:
    """What one sweep runs: a picklable trial function plus shared kwargs.

    ``fn`` must be an importable module-level callable (workers unpickle
    it by qualified name); it receives ``common`` merged with the
    per-trial kwargs and returns a picklable result. If ``seed`` is not
    ``None``, every trial additionally receives ``seed_arg=``
    :func:`trial_seed` ``(seed, key, index)`` unless its own kwargs
    already bind that argument — sweeps that need a bespoke seed formula
    just put it in the per-trial kwargs.

    ``timeout_s`` gives each trial a wall-clock budget **and** switches
    the runner into failure-recording mode: trials that time out, raise,
    or lose their worker yield a :class:`TrialFailure` in their result
    slot instead of aborting the sweep.
    """

    fn: Callable[..., Any]
    common: Mapping[str, Any] = field(default_factory=dict)
    key: str = ""
    seed: Optional[int] = None
    seed_arg: str = "seed"
    timeout_s: Optional[float] = None

    def kwargs_for(self, index: int, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """The full kwargs of trial ``index`` (canonical, order-free)."""
        kwargs = dict(self.common)
        if self.seed is not None and self.seed_arg not in overrides:
            kwargs[self.seed_arg] = trial_seed(self.seed, self.key, index)
        kwargs.update(overrides)
        return kwargs


@dataclass
class _ChunkResult:
    """What one worker returns for one chunk of trials."""

    indices: List[int]
    results: List[Any]
    seconds: List[float]
    metrics_snapshot: Optional[Dict[str, Any]]
    profile_snapshot: Optional[Dict[str, Any]] = None


def _run_chunk(
    fn: Callable[..., Any],
    items: Sequence[Tuple[int, Dict[str, Any]]],
    fresh_registry: bool,
    timeout_s: Optional[float] = None,
    profile: bool = False,
) -> _ChunkResult:
    """Run one chunk of trials; the worker-side entry point.

    Installs a fresh default metrics registry (so the snapshot covers
    exactly this chunk, and forked workers do not double-count state
    inherited from the parent), runs each trial under a wall clock, and
    returns results + timings + the registry snapshot. Also the serial
    path: ``jobs=1`` calls this in-process with the same arguments.

    With ``timeout_s`` set, each trial runs under a wall-clock alarm and
    failures (timeout or exception) become :class:`TrialFailure` results
    rather than propagating — one bad trial cannot take down the chunk.

    With ``profile`` set (the parent had a :class:`StageProfiler`
    active), the chunk runs under its own fresh profiler — mirroring
    the fresh-registry rule, so a forked worker never re-counts stages
    inherited from the parent — and ships its ``repro.obs.profile/v1``
    snapshot back for the parent's canonical-order merge.
    """
    previous = obs_metrics.get_default()
    registry = MetricsRegistry() if fresh_registry else previous
    if fresh_registry:
        obs_metrics.set_default(registry)
    previous_profiler = obs_tracing.get_profiler()
    profiler = None
    if profile:
        # Imported here: workers only pay for the profile module when
        # the parent actually profiles.
        from repro.obs.profile import StageProfiler

        profiler = StageProfiler()
        obs_tracing.set_profiler(profiler)
    try:
        indices: List[int] = []
        results: List[Any] = []
        seconds: List[float] = []
        for index, kwargs in items:
            start = time.perf_counter()
            if timeout_s is None:
                results.append(fn(**kwargs))
            else:
                try:
                    with _trial_alarm(timeout_s):
                        results.append(fn(**kwargs))
                except _TrialTimeout:
                    elapsed = time.perf_counter() - start
                    results.append(TrialFailure(
                        index, "timeout",
                        f"trial exceeded {timeout_s:g}s wall-clock budget",
                        elapsed,
                    ))
                except Exception as exc:
                    elapsed = time.perf_counter() - start
                    results.append(TrialFailure(
                        index, "raised",
                        f"{type(exc).__name__}: {exc}",
                        elapsed,
                    ))
            seconds.append(time.perf_counter() - start)
            indices.append(index)
    finally:
        if fresh_registry:
            obs_metrics.set_default(previous)
        if profile:
            obs_tracing.set_profiler(previous_profiler)
    snapshot = registry.to_dict() if fresh_registry else None
    profile_snapshot = profiler.to_dict() if profiler is not None else None
    return _ChunkResult(indices, results, seconds, snapshot, profile_snapshot)


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: 0 means all CPUs, negatives reject."""
    if jobs < 0:
        raise ExecError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_chunk_size(n: int, jobs: int) -> int:
    """Chunk size amortizing spawn/pickle cost: ~4 chunks per worker.

    Large enough that a chunk does real work relative to the pickle
    round-trip, small enough that the pool load-balances and a retried
    chunk does not redo the whole sweep. Capped at 32 trials.
    """
    if n <= 0:
        return 1
    per_worker = -(-n // max(1, jobs))  # ceil
    return max(1, min(32, -(-per_worker // 4)))


class TrialRunner:
    """Runs independent trials, serially or over a process pool.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (default) runs in-process; ``0`` uses
        every CPU (:func:`resolve_jobs`).
    chunk_size:
        Trials per submitted task; default :func:`default_chunk_size`.
    max_chunk_retries:
        How many times one chunk may be resubmitted after a worker
        crash before :class:`ExecError` is raised.
    metrics:
        Parent registry that receives merged worker snapshots and the
        runner's own trial-timing histogram (default: the process-wide
        default registry at run time).
    progress:
        Optional ``progress(done_trials, total_trials)`` callback,
        invoked in the parent whenever a chunk completes.
    sampler:
        Optional :class:`~repro.obs.timeseries.MetricsSampler` sampled
        once after each chunk's snapshot merges into the parent
        registry. Merges happen in canonical chunk order after the
        sweep, so the resulting series is identical for every ``jobs``
        value.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        max_chunk_retries: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        sampler=None,
    ):
        self.jobs = resolve_jobs(jobs)
        if chunk_size is not None and chunk_size < 1:
            raise ExecError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        if max_chunk_retries < 0:
            raise ExecError(
                f"max_chunk_retries must be >= 0, got {max_chunk_retries}"
            )
        self.max_chunk_retries = max_chunk_retries
        self._metrics = metrics
        self.progress = progress
        self.sampler = sampler

    # ------------------------------------------------------------------ API

    def run_trials(
        self,
        spec: TrialSpec,
        n: Optional[int] = None,
        params: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> List[Any]:
        """Run ``n`` trials (or one per ``params`` entry), ordered.

        ``params[i]`` holds trial ``i``'s kwargs overrides; pass ``n``
        alone for a homogeneous sweep driven purely by derived seeds.
        Results come back indexed by trial, independent of ``jobs``,
        chunking, and completion order.
        """
        if params is None:
            if n is None:
                raise ExecError("run_trials needs n or params")
            params = [{} for _ in range(n)]
        elif n is not None and n != len(params):
            raise ExecError(f"n={n} disagrees with len(params)={len(params)}")
        total = len(params)
        if total == 0:
            return []
        items = [
            (i, spec.kwargs_for(i, overrides))
            for i, overrides in enumerate(params)
        ]
        chunk_size = self.chunk_size or default_chunk_size(total, self.jobs)
        chunks = [
            items[lo : lo + chunk_size] for lo in range(0, total, chunk_size)
        ]
        registry = self._metrics if self._metrics is not None \
            else obs_metrics.get_default()
        registry.counter(
            "cchunter_exec_sweeps_total",
            "Trial sweeps executed by TrialRunner.",
            labels={"spec": spec.key or spec.fn.__name__},
        ).inc()
        # When the caller has a StageProfiler active, each chunk runs
        # under its own fresh profiler and ships a profile snapshot
        # back, merged below alongside the metrics snapshots.
        parent_profiler = obs_tracing.get_profiler()
        profile = parent_profiler is not None
        if self.jobs == 1:
            chunk_results = [
                self._finish_chunk(
                    _run_chunk(spec.fn, chunk, True, spec.timeout_s, profile),
                    registry, spec, done, total,
                )
                for done, chunk in self._serial_chunks(chunks)
            ]
        else:
            chunk_results = self._run_pooled(
                spec, chunks, registry, total, profile
            )
        # Invariant 3: replay worker snapshots into the parent registry
        # in canonical chunk order, not completion order — gauge merges
        # are last-writer-wins, so this is what makes the merged
        # registry identical for every jobs value. Profile snapshots
        # ride the same loop: their sums commute too, but keeping one
        # order discipline for every merged artifact is cheaper than
        # remembering which ones commute.
        for chunk_result in sorted(chunk_results, key=lambda c: c.indices[0]):
            if chunk_result.metrics_snapshot is not None:
                registry.merge(chunk_result.metrics_snapshot)
            if (
                parent_profiler is not None
                and chunk_result.profile_snapshot is not None
            ):
                parent_profiler.merge_dict(chunk_result.profile_snapshot)
            if self.sampler is not None:
                self.sampler.sample(
                    label=f"chunk:{chunk_result.indices[0]}"
                )
        results: List[Any] = [None] * total
        for chunk_result in chunk_results:
            for index, result in zip(chunk_result.indices, chunk_result.results):
                results[index] = result
        return results

    # ------------------------------------------------------------- internals

    @staticmethod
    def _serial_chunks(chunks):
        done = 0
        for chunk in chunks:
            done += len(chunk)
            yield done, chunk

    def _finish_chunk(
        self,
        chunk_result: _ChunkResult,
        registry: MetricsRegistry,
        spec: TrialSpec,
        done: int,
        total: int,
    ) -> _ChunkResult:
        """Tally one completed chunk and fire the progress callback.

        Runs in completion order, so it must only touch commutative
        metrics (counters, histograms); the worker snapshot itself is
        merged later, in canonical order, by ``run_trials``.
        """
        label = {"spec": spec.key or spec.fn.__name__}
        timer = registry.histogram(
            "cchunter_trial_seconds",
            "Wall time of one trial inside TrialRunner.",
            labels=label,
            buckets=TRIAL_SECONDS_BUCKETS,
        )
        for seconds in chunk_result.seconds:
            timer.observe(seconds)
        registry.counter(
            "cchunter_exec_trials_total",
            "Trials completed by TrialRunner.",
            labels=label,
        ).inc(len(chunk_result.indices))
        registry.counter(
            "cchunter_exec_chunks_total",
            "Trial chunks completed by TrialRunner.",
            labels=label,
        ).inc()
        for result in chunk_result.results:
            if isinstance(result, TrialFailure):
                registry.counter(
                    "cchunter_trial_failures_total",
                    "Trials that timed out, raised, or lost their worker.",
                    labels={**label, "kind": result.kind},
                ).inc()
        if self.progress is not None:
            self.progress(done, total)
        return chunk_result

    def _run_pooled(
        self,
        spec: TrialSpec,
        chunks: List[List[Tuple[int, Dict[str, Any]]]],
        registry: MetricsRegistry,
        total: int,
        profile: bool = False,
    ) -> List[_ChunkResult]:
        """Fan chunks over a process pool, retrying crashed chunks.

        A worker crash (``BrokenProcessPool``) poisons the whole pool, so
        every unfinished chunk fails with it and which one crashed is
        unknown. Those chunks are then rerun one at a time, each alone
        in a fresh one-worker pool, and only a chunk that crashes alone
        is charged a retry: a neighbour's crash never spends a chunk's
        budget. Ordinary exceptions raised by the trial function are
        *not* retried — they are deterministic under the seed contract —
        and propagate to the caller.

        With ``spec.timeout_s`` set, two extra guards apply. A chunk
        that exhausts its crash retries is *recorded* — every trial in
        it becomes a ``crashed`` :class:`TrialFailure` — instead of
        raising. And a parent-side backstop bounds how long the batch
        may run past its per-trial budgets: if a worker's alarm never
        fires (platform without ``setitimer``, or a trial hung in
        uninterruptible C code), the remaining chunks are reaped as
        ``timeout`` failures rather than blocking forever.
        """
        pending: List[int] = list(range(len(chunks)))
        retries = [0] * len(chunks)
        finished: List[_ChunkResult] = []
        done_trials = 0
        retry_counter = registry.counter(
            "cchunter_exec_chunk_retries_total",
            "Chunk reruns after the chunk crashed its worker alone.",
            labels={"spec": spec.key or spec.fn.__name__},
        )
        backstop = None
        if spec.timeout_s is not None:
            longest = max(len(chunk) for chunk in chunks)
            # Generous: the alarm inside the worker is the real limit;
            # this only catches workers that cannot enforce it.
            backstop = spec.timeout_s * longest * 2 + 30.0

        def _failed_chunk(ci: int, kind: str, message: str) -> None:
            nonlocal done_trials
            chunk = chunks[ci]
            chunk_result = _ChunkResult(
                indices=[index for index, _kwargs in chunk],
                results=[
                    TrialFailure(index, kind, message, 0.0)
                    for index, _kwargs in chunk
                ],
                seconds=[0.0] * len(chunk),
                metrics_snapshot=None,
            )
            pending.remove(ci)
            done_trials += len(chunk)
            finished.append(self._finish_chunk(
                chunk_result, registry, spec, done_trials, total
            ))

        # Chunks that were unfinished when a shared pool broke; each
        # reruns alone until it completes or is given up on.
        isolate: List[int] = []
        while pending:
            isolate = [ci for ci in isolate if ci in pending]
            batch = isolate[:1] or list(pending)
            workers = min(self.jobs, len(batch))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        _run_chunk, spec.fn, chunks[ci], True, spec.timeout_s,
                        profile,
                    ): ci
                    for ci in batch
                }
                try:
                    for future in as_completed(futures, timeout=backstop):
                        ci = futures[future]
                        try:
                            chunk_result = future.result()
                        except BrokenProcessPool:
                            if len(batch) > 1:
                                # A crash poisons the whole pool, so every
                                # unfinished chunk lands here, crasher or
                                # not: rerun each alone, uncharged.
                                isolate.append(ci)
                                continue
                            # Crashed alone: this chunk is the crasher.
                            retries[ci] += 1
                            retry_counter.inc()
                            if retries[ci] > self.max_chunk_retries:
                                if spec.timeout_s is not None:
                                    _failed_chunk(
                                        ci, "crashed",
                                        f"worker crashed {retries[ci]} times",
                                    )
                                    continue
                                raise ExecError(
                                    f"chunk {ci} ({len(chunks[ci])} trials) "
                                    f"crashed {retries[ci]} times; giving up"
                                ) from None
                            continue
                        pending.remove(ci)
                        done_trials += len(chunk_result.indices)
                        finished.append(
                            self._finish_chunk(
                                chunk_result, registry, spec, done_trials,
                                total,
                            )
                        )
                except FuturesTimeout:
                    # Backstop tripped: kill the stuck workers outright
                    # (the context-manager exit would otherwise join
                    # them forever) and reap every chunk still in
                    # flight as timeout failures.
                    for proc in getattr(pool, "_processes", {}).values():
                        proc.terminate()
                    pool.shutdown(wait=False, cancel_futures=True)
                    for future, ci in futures.items():
                        if ci not in pending:
                            continue
                        if future.done() and future.exception() is None:
                            chunk_result = future.result()
                            pending.remove(ci)
                            done_trials += len(chunk_result.indices)
                            finished.append(self._finish_chunk(
                                chunk_result, registry, spec, done_trials,
                                total,
                            ))
                        else:
                            _failed_chunk(
                                ci, "timeout",
                                "chunk missed the parent-side deadline "
                                f"({backstop:g}s)",
                            )
        return finished


def run_trials(
    spec: TrialSpec,
    n: Optional[int] = None,
    params: Optional[Sequence[Mapping[str, Any]]] = None,
    jobs: int = 1,
    **runner_kwargs: Any,
) -> List[Any]:
    """One-shot convenience: ``TrialRunner(jobs, ...).run_trials(...)``."""
    return TrialRunner(jobs=jobs, **runner_kwargs).run_trials(
        spec, n=n, params=params
    )
