"""The benchmark registry: which benches exist and what they gate on.

Each :class:`BenchSpec` binds a ``benchmarks/bench_*.py`` module to its
committed baseline file and the metrics the regression gate compares.
Metrics are declared with an explicit *direction* — for throughput,
higher is better; for overhead ratios, lower is better — plus a
per-metric tolerance sized for the reality that CI runners are slower
and noisier than the development machines that wrote the baselines:

- ``tolerance`` is relative: a higher-is-better metric fails when the
  fresh value drops below ``baseline * (1 - tolerance)``; lower-is-
  better when it rises above ``baseline * (1 + tolerance)``.
- ``abs_slack`` is additive headroom on top of the relative bound,
  for small ratios (a 5% overhead baseline with 5 points of absolute
  slack tolerates up to ~10%) where relative tolerance alone would
  gate on noise.
- ``quick=False`` marks metrics that a 2-trial ``--quick`` smoke run
  cannot resolve (few-percent relative overheads); the quick gate
  skips them, mirroring the benches' own quick-mode behavior.
- ``kind="bool"`` metrics ignore direction/tolerance: a baseline of
  true must stay true (verdict-identity invariants).

The generous throughput tolerances are intentional: the gate exists to
catch the ~10x regression of losing the columnar hot path (1602 -> 156
quanta/s, docs/PERFORMANCE.md), not 20% runner-to-runner variance. The
old hard floor of 400 quanta/s is now just the ``quanta_per_second.off``
row below — one instance of a general mechanism.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple, Tuple

from repro.errors import BenchError


class MetricSpec(NamedTuple):
    """One gated metric inside a bench's result document."""

    #: Dotted keypath into the bench's metrics doc, e.g.
    #: ``"quanta_per_second.off"`` or ``"kernels.density_histogram.speedup"``.
    key: str
    #: ``"higher"`` or ``"lower"`` is better (ignored for bools).
    direction: str = "higher"
    #: Relative tolerance against the baseline value.
    tolerance: float = 0.5
    #: Additive slack on top of the relative bound (same unit as the
    #: metric; useful for small ratios like overhead fractions).
    abs_slack: float = 0.0
    #: Whether a ``--quick`` (low-trial) run can resolve this metric.
    quick: bool = True
    #: ``"float"`` or ``"bool"``.
    kind: str = "float"


class BenchSpec(NamedTuple):
    """One registered benchmark: module, entry point, baseline, gates."""

    #: Registry name (``repro bench check <name>``).
    name: str
    #: Module filename under ``benchmarks/`` (no ``.py``).
    module: str
    #: Zero-argument entry function returning the metrics doc.
    entry: str
    #: Committed baseline filename at the repo root.
    baseline: str
    metrics: Tuple[MetricSpec, ...]


SUITE: Tuple[BenchSpec, ...] = (
    BenchSpec(
        name="obs_overhead",
        module="bench_obs_overhead",
        entry="measure_overhead",
        baseline="BENCH_obs.json",
        metrics=(
            # Absolute-throughput anchor: catching the loss of the
            # columnar hot path, not runner variance. 0.75 relative
            # tolerance on a ~1600 q/s baseline gates at ~400 q/s —
            # the old FLOOR_QUANTA_PER_SECOND, derived instead of
            # hard-coded.
            MetricSpec("quanta_per_second.off", "higher", tolerance=0.75),
            MetricSpec(
                "overhead_vs_off.counters", "lower",
                tolerance=0.5, abs_slack=0.05, quick=False,
            ),
            MetricSpec(
                "overhead_vs_off.evidence", "lower",
                tolerance=0.5, abs_slack=0.08, quick=False,
            ),
            MetricSpec(
                "overhead_vs_off.profile", "lower",
                tolerance=0.5, abs_slack=0.05, quick=False,
            ),
            MetricSpec(
                "overhead_vs_off.telemetry", "lower",
                tolerance=0.5, abs_slack=0.05, quick=False,
            ),
            # The profiler must keep attributing essentially the whole
            # session (>= 90% of run wall time) on any machine.
            MetricSpec(
                "profile_attribution_coverage", "higher", tolerance=0.08,
            ),
            MetricSpec(
                "evidence_verdicts_identical", kind="bool",
            ),
            MetricSpec(
                "profile_verdicts_identical", kind="bool",
            ),
        ),
    ),
    BenchSpec(
        name="columnar",
        module="bench_columnar",
        entry="measure_columnar",
        baseline="BENCH_columnar.json",
        metrics=(
            # Speedup ratios divide out machine speed, so they travel
            # better than raw throughput; still leave wide margins.
            MetricSpec(
                "kernels.density_histogram.speedup", "higher", tolerance=0.8,
            ),
        ),
    ),
    BenchSpec(
        name="sim_throughput",
        module="bench_sim_throughput",
        entry="measure_sim_throughput",
        baseline="BENCH_sim.json",
        metrics=(
            MetricSpec(
                "session.quanta_per_second", "higher", tolerance=0.75,
            ),
            # A 32-quantum noisy cache session at 256 sets, steady state:
            # classifying each series' conflicts with its own bloom-check
            # replay ran it at ~0.4x the rate (~13 vs ~31 quanta/s on the
            # machine that wrote the baseline), below this bound of 0.5x.
            MetricSpec(
                "cache_steady_session.quanta_per_second", "higher",
                tolerance=0.5,
            ),
            # A 240-quantum bus session: re-sorting the whole lock
            # history on every spy sample ran it ~25x slower (~160 vs
            # ~4000 quanta/s on the machine that wrote the baseline),
            # far below this bound of 0.25x baseline.
            MetricSpec(
                "membus_session.quanta_per_second", "higher",
                tolerance=0.75,
            ),
            # A 600-quantum bus session with a verdict every quantum:
            # re-clustering all 512 horizon windows on each verdict, not
            # the horizon's distinct patterns, ran it at ~0.25x the rate
            # (~530 vs ~2100 quanta/s on the machine that wrote the
            # baseline), below this bound of 0.5x.
            MetricSpec(
                "membus_eager_session.quanta_per_second", "higher",
                tolerance=0.5,
            ),
            # Growth gates: a path's per-quantum cost late in a long
            # session is at most 1.25x its cost early in a short one,
            # timed quantum by quantum in lockstep, so the ratio needs
            # no machine-specific baseline. Rebuilding every divider
            # usage track on each registration read 4.5x on the benign
            # divider pair (12 vs 48 quanta); the bus and cache paths
            # read about 1.06x.
            MetricSpec("divider_growth.flat", kind="bool"),
            MetricSpec("membus_growth.flat", kind="bool"),
            MetricSpec("cache_growth.flat", kind="bool"),
            # A verdict on a full horizon of two patterns costs at most
            # 3 burst analyses of the horizon's total, timed in
            # alternation, so the ratio needs no baseline either.
            # Re-clustering and re-analyzing every pattern on each
            # verdict read about 9; analyzing only the patterns the
            # last push changed reads about 2.
            MetricSpec("verdict_cost.cheap", kind="bool"),
            # A verdict on the served benign tenant's full horizon
            # (about 140 patterns, k-means every verdict) costs at most
            # 40 burst analyses, timed the same way. K-means over all
            # 128 symbol columns read 57-59; over the 16 columns that
            # can hold a symbol it reads 25-27.
            MetricSpec("kmeans_cost.cheap", kind="bool"),
            # A divider quantum's tap read and slot fold at Δt = 500
            # (500k windows) cost at most 3x the same segments at Δt =
            # 50,000, timed in alternation. Spreading the segments into
            # one float per window and binning them read about 29;
            # carrying runs of equal-valued windows reads about 1.4.
            MetricSpec("divider_counts.flat", kind="bool"),
            # Pushing one cache window (a 4,000-record covert train plus
            # 800 records on other pairs) costs at most 14 analyses of
            # a correlogram, timed in alternation. A running estimator
            # per pair, with the dominant train correlated over all its
            # lags, read 32-42; one exact correlogram of the dominant
            # pair over the needed lags reads about 6.
            MetricSpec("oscillation_cost.cheap", kind="bool"),
        ),
    ),
    BenchSpec(
        name="serve_load",
        module="bench_serve_load",
        entry="measure_serve_load",
        baseline="BENCH_serve.json",
        metrics=(
            # Verdict round-trip latency under light load: the gate
            # exists to catch the event loop blocking (a synchronous
            # fold stalling every tenant), not scheduler jitter —
            # hence the wide relative band plus absolute slack.
            MetricSpec(
                "tiers.t2.verdict_latency_ms.p50", "lower",
                tolerance=2.0, abs_slack=50.0,
            ),
            MetricSpec(
                "tiers.t8.quanta_per_second", "higher", tolerance=0.75,
            ),
            # Shedding must stay bounded at the top tier: losing the
            # sampling ladder (hard-shedding everything, or shedding
            # nothing and ballooning latency) moves this a lot.
            MetricSpec(
                "tiers.t8.shed_rate", "lower",
                tolerance=1.0, abs_slack=0.25,
            ),
            # The 16-tenant tier only runs in the full bench; the
            # 2-trial --quick smoke stops at t8.
            MetricSpec(
                "tiers.t16.quanta_per_second", "higher",
                tolerance=0.75, quick=False,
            ),
            MetricSpec(
                "tiers.t16.verdict_latency_ms.p99", "lower",
                tolerance=3.0, abs_slack=250.0, quick=False,
            ),
            MetricSpec("clean_report_identical", kind="bool"),
        ),
    ),
)


def suite_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in SUITE)


def get_spec(name: str) -> BenchSpec:
    for spec in SUITE:
        if spec.name == name:
            return spec
    raise BenchError(
        f"unknown benchmark {name!r}; registered: {', '.join(suite_names())}"
    )


def extract_metric(doc: Mapping[str, Any], key: str) -> Any:
    """Resolve a dotted keypath inside a metrics document."""
    node: Any = doc
    for part in key.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise BenchError(
                f"metric {key!r} missing from result document "
                f"(stopped at {part!r})"
            )
        node = node[part]
    return node


def allowed_bound(spec: MetricSpec, baseline: float) -> float:
    """The worst fresh value ``spec`` tolerates against ``baseline``."""
    if spec.direction == "higher":
        return baseline * (1.0 - spec.tolerance) - spec.abs_slack
    if spec.direction == "lower":
        return baseline * (1.0 + spec.tolerance) + spec.abs_slack
    raise BenchError(
        f"metric {spec.key!r}: direction must be 'higher' or 'lower', "
        f"got {spec.direction!r}"
    )
