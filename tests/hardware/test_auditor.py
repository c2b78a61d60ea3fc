"""Tests for the CC-auditor register model."""

import numpy as np
import pytest

from repro.config import AuditorConfig
from repro.errors import HardwareError
from repro.hardware.auditor import CCAuditor, MonitorSlot, VectorRegisterPair


class TestMonitorSlot:
    def test_histogram_accumulation(self):
        slot = MonitorSlot("membus", dt=1000, config=AuditorConfig())
        slot.ingest_window_counts([0, 0, 3, 20, 20])
        assert slot.histogram[0] == 2
        assert slot.histogram[3] == 1
        assert slot.histogram[20] == 2
        assert slot.windows_recorded == 5

    def test_density_clamps_to_last_bin(self):
        slot = MonitorSlot("membus", dt=1000, config=AuditorConfig())
        slot.ingest_window_counts([500])
        assert slot.histogram[127] == 1

    def test_entry_saturation(self):
        config = AuditorConfig(histogram_entry_bits=4)  # max 15
        slot = MonitorSlot("m", dt=10, config=config)
        slot.ingest_window_counts([1] * 100)
        assert slot.histogram[1] == 15

    def test_read_and_reset(self):
        slot = MonitorSlot("m", dt=10, config=AuditorConfig())
        slot.ingest_window_counts([5, 5])
        snapshot = slot.read_and_reset()
        assert snapshot[5] == 2
        assert slot.histogram.sum() == 0
        assert slot.windows_recorded == 0

    def test_negative_counts_rejected(self):
        slot = MonitorSlot("m", dt=10, config=AuditorConfig())
        with pytest.raises(HardwareError):
            slot.ingest_window_counts([-1])

    def test_bad_dt(self):
        with pytest.raises(HardwareError):
            MonitorSlot("m", dt=0, config=AuditorConfig())


class TestVectorRegisters:
    def test_record_and_drain(self):
        vectors = VectorRegisterPair(AuditorConfig())
        vectors.record_batch(np.array([1]), np.array([2]))
        vectors.record_batch(np.array([2]), np.array([1]))
        reps, vics = vectors.drain()
        assert reps.tolist() == [1, 2]
        assert vics.tolist() == [2, 1]

    def test_drain_clears(self):
        vectors = VectorRegisterPair(AuditorConfig())
        vectors.record_batch(np.array([1]), np.array([2]))
        vectors.drain()
        reps, _ = vectors.drain()
        assert reps.size == 0

    def test_alternation_on_fill(self):
        config = AuditorConfig(vector_register_bytes=4)
        vectors = VectorRegisterPair(config)
        for _ in range(9):
            vectors.record_batch(np.array([1]), np.array([2]))
        assert vectors.swaps == 2
        reps, _ = vectors.drain()
        assert reps.size == 9  # lossless across swaps

    def test_context_id_bounds(self):
        vectors = VectorRegisterPair(AuditorConfig())
        with pytest.raises(HardwareError):
            vectors.record_batch(np.array([8]), np.array([0]))

    def test_batch_context_id_bounds(self):
        vectors = VectorRegisterPair(AuditorConfig())
        for replacer, victim in ((8, 0), (0, 9), (-1, 2)):
            with pytest.raises(HardwareError, match="fit in 3 bits"):
                vectors.record_batch(
                    np.array([0, replacer]), np.array([1, victim])
                )
        assert vectors.pending == 0

    def test_batch(self):
        vectors = VectorRegisterPair(AuditorConfig())
        vectors.record_batch(np.array([0, 1]), np.array([1, 0]))
        assert vectors.pending == 2


class TestCCAuditor:
    def test_two_slot_limit(self):
        auditor = CCAuditor()
        auditor.program(0, "membus", 100_000)
        auditor.program(1, "divider0", 500)
        with pytest.raises(HardwareError):
            auditor.free_slot_index()

    def test_free_slot_discovery(self):
        auditor = CCAuditor()
        assert auditor.free_slot_index() == 0
        auditor.program(0, "membus", 100_000)
        assert auditor.free_slot_index() == 1

    def test_active_units(self):
        auditor = CCAuditor()
        auditor.program(0, "membus", 100_000)
        assert auditor.active_units == ("membus",)

    def test_unprogrammed_slot_raises(self):
        with pytest.raises(HardwareError):
            CCAuditor().slot(0)

    def test_bad_slot_index(self):
        with pytest.raises(HardwareError):
            CCAuditor().program(5, "x", 10)

    def test_reprogram_replaces(self):
        auditor = CCAuditor()
        auditor.program(0, "membus", 100_000)
        auditor.program(0, "divider0", 500)
        assert auditor.slot(0).unit_name == "divider0"
        assert auditor.slot(0).dt == 500
