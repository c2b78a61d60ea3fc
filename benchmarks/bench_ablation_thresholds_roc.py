"""Ablation: oscillation-detector operating points (mini ROC).

The oscillation detector's main knob is the peak-height floor. This
ablation runs covert cache sessions (positive class) and webserver pairs
— the hardest benign case, with genuine brief periodicity — (negative
class) across seeds, re-scoring the correlograms the cache analyzer
computed for each window at several floors. The default 0.45 sits on
the operating plateau: full detection, zero false alarms, with margin
on both sides.
"""

from conftest import record

from repro.analysis.figures import run_channel_session
from repro.core.detector import AuditUnit, CCHunter
from repro.core.oscillation import analyze_autocorrelogram
from repro.sim.machine import Machine
from repro.util.bitstream import Message
from repro.workloads.base import workload_process
from repro.workloads.filebench import webserver


def collect_correlograms():
    positives = []
    for seed in (1, 2, 3):
        run = run_channel_session(
            "cache", Message.random(10, seed), bandwidth_bps=100.0,
            seed=seed, n_sets_total=128,
        )
        positives.extend(a.acf for a in run.hunter.cache_analyses())
    negatives = []
    for seed in (11, 12, 13):
        machine = Machine(seed=seed)
        hunter = CCHunter(machine)
        hunter.audit(AuditUnit.CACHE)
        machine.spawn(
            workload_process(webserver, machine, 4, seed=seed, instance=0),
            ctx=0,
        )
        machine.spawn(
            workload_process(webserver, machine, 4, seed=seed + 50,
                             instance=1),
            ctx=1,
        )
        machine.run_quanta(4)
        negatives.extend(a.acf for a in hunter.cache_analyses())
    return positives, negatives


def test_ablation_thresholds_roc(benchmark):
    positives, negatives = benchmark.pedantic(
        collect_correlograms, rounds=1, iterations=1
    )
    assert positives and negatives
    lines = [
        f"windows: {len(positives)} covert, {len(negatives)} benign "
        "(webserver pairs)"
    ]
    for floor in (0.25, 0.35, 0.45, 0.6, 0.75):
        tp = sum(
            analyze_autocorrelogram(acf, min_peak_height=floor).significant
            for acf in positives
        )
        fp = sum(
            analyze_autocorrelogram(acf, min_peak_height=floor).significant
            for acf in negatives
        )
        tpr = tp / len(positives)
        fpr = fp / len(negatives)
        marker = "  <- default" if floor == 0.45 else ""
        lines.append(
            f"peak floor {floor:.2f}: TPR {tpr:.2f}, FPR {fpr:.2f}{marker}"
        )
        if 0.35 <= floor <= 0.6:
            assert tpr == 1.0, floor
            assert fpr == 0.0, floor
    record("Ablation: oscillation peak-height operating points", *lines)
