"""Golden fixture: trace export writes the same bytes for fixed sessions.

``golden_exports.json`` holds, per session below, the SHA-256 of every
array :func:`~repro.traces.export_traces` writes (dtype, shape and raw
bytes), read back from the ``.npz`` archive. It pins what an archive
holds independently of how the taps are read: the bus lock times, the
conflict records and each core's divider and multiplier counts. The
sessions cover the four covert channels and the benign bzip2+h264ref
pair, whose divider activity is dense.

To re-record after an intended change of behaviour::

    PYTHONPATH=src python tests/test_trace_golden.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.core.detector import AuditUnit, CCHunter
from repro.sim.machine import Machine
from repro.traces import export_traces
from repro.util.bitstream import Message
from repro.workloads.base import workload_process
from repro.workloads.spec import bzip2, h264ref

GOLDEN = Path(__file__).with_name("golden_exports.json")

#: Quanta of the benign pair's session.
BENIGN_QUANTA = 4


def _benign_pair_machine() -> Machine:
    """Figure 14's bzip2+h264ref pair under bus and divider audit."""
    machine = Machine(seed=9)
    hunter = CCHunter(machine)
    hunter.audit(AuditUnit.MEMORY_BUS)
    hunter.audit(AuditUnit.DIVIDER, core=0)
    for ctx, profile in enumerate((bzip2, h264ref)):
        machine.spawn(
            workload_process(
                profile, machine, BENIGN_QUANTA, seed=ctx + 1, instance=ctx
            ),
            ctx=ctx,
        )
    machine.run_quanta(BENIGN_QUANTA)
    return machine


#: name -> a thunk returning the machine whose taps are exported.
SESSIONS = {
    "membus": lambda: run_channel_session(
        "membus", Message.random(30, 7), bandwidth_bps=100.0, seed=7
    ).machine,
    "divider": lambda: run_channel_session(
        "divider", Message.random(20, 4), bandwidth_bps=100.0, seed=4
    ).machine,
    "multiplier": lambda: run_channel_session(
        "multiplier", Message.random(20, 4), bandwidth_bps=100.0, seed=4
    ).machine,
    "cache": lambda: run_channel_session(
        "cache", Message.random(10, 3), bandwidth_bps=100.0, seed=3,
        n_sets_total=64,
    ).machine,
    "benign-bzip2-h264ref": _benign_pair_machine,
}


def _digest(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(f"{array.dtype.str}{list(array.shape)}".encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def export_digests(name: str, directory: Path) -> dict:
    """Export session ``name`` and digest every array the archive holds."""
    path = directory / f"{name}.npz"
    export_traces(SESSIONS[name](), path)
    with np.load(path) as data:
        return {key: _digest(data[key]) for key in sorted(data.files)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_session(golden):
    assert sorted(golden) == sorted(SESSIONS)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_export_matches_golden(name, golden, tmp_path):
    assert export_digests(name, tmp_path) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as scratch:
        records = {
            name: export_digests(name, Path(scratch))
            for name in sorted(SESSIONS)
        }
    GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(records)} sessions to {GOLDEN}")
