"""Extension: time-to-detection across bandwidths.

The paper evaluates *whether* channels are caught; an operator also cares
*how fast*. This bench measures the first quantum at which each verdict
fires: high-bandwidth channels are convicted within the first quanta,
and even 1 bps channels fall as soon as two burst quanta have spread
(the recurrence requirement — by design, a single burst episode is not
enough to alarm).
"""

from conftest import record

from repro.analysis.figures import _message_with_ones, run_channel_session
from repro.core.detector import AuditUnit

_UNIT = {
    "membus": AuditUnit.MEMORY_BUS,
    "divider": AuditUnit.DIVIDER,
    "cache": AuditUnit.CACHE,
}


def measure_latencies():
    rows = []
    for kind, bw, bits in (
        ("membus", 100.0, 40),
        ("membus", 10.0, 16),
        ("membus", 1.0, 6),
        ("divider", 100.0, 40),
        ("cache", 100.0, 24),
        ("cache", 10.0, 8),
    ):
        message = _message_with_ones(bits, seed=7)
        kwargs = {"n_sets_total": 128} if kind == "cache" else {}
        # Only an eager session records when its verdict first fired.
        run = run_channel_session(
            kind, message, bw, seed=7, track_detection_latency=True,
            **kwargs,
        )
        core = 0 if kind == "divider" else None
        latency = run.hunter.first_detection_quantum(_UNIT[kind], core=core)
        rows.append((kind, bw, run.quanta, latency))
    return rows


def test_detection_latency(benchmark):
    rows = benchmark.pedantic(measure_latencies, rounds=1, iterations=1)
    lines = []
    for kind, bw, quanta, latency in rows:
        assert latency is not None, (kind, bw)
        lines.append(
            f"{kind:<8} @ {bw:>6.1f} bps: first alarm at quantum "
            f"{latency} of {quanta} ({(latency + 1) * 0.1:.1f} s of "
            "monitoring)"
        )
    by_key = {(k, b): l for k, b, _q, l in rows}
    # Faster channels are caught at least as fast.
    assert by_key[("membus", 100.0)] <= by_key[("membus", 1.0)]
    assert by_key[("cache", 100.0)] <= 1
    record("Extension: time to detection", *lines)
