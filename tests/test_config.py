"""Tests for configuration validation and derived quantities."""

import pytest

from repro.config import (
    AuditorConfig,
    BusConfig,
    CacheConfig,
    FunctionalUnitConfig,
    MachineConfig,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_paper_l2_geometry(self):
        l2 = CacheConfig()
        assert l2.n_blocks == 4096
        assert l2.n_sets == 512

    def test_non_integral_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=8)

    def test_hit_must_beat_miss(self):
        with pytest.raises(ConfigError):
            CacheConfig(hit_latency=200, miss_latency=100)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0)


class TestBusConfig:
    def test_defaults_valid(self):
        bus = BusConfig()
        assert bus.lock_duration > 0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigError):
            BusConfig(locked_extra_latency=-1)

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigError):
            BusConfig(base_latency=0)


class TestFunctionalUnitConfig:
    def test_defaults_valid(self):
        unit = FunctionalUnitConfig()
        assert unit.contention_event_period == pytest.approx(5.2)

    def test_bad_period(self):
        with pytest.raises(ConfigError):
            FunctionalUnitConfig(contention_event_period=0)

    def test_bad_latency(self):
        with pytest.raises(ConfigError):
            FunctionalUnitConfig(latency=0)


class TestMachineConfig:
    def test_paper_topology(self):
        config = MachineConfig()
        assert config.n_contexts == 8
        assert config.quantum_cycles == 250_000_000

    def test_multiplier_faster_than_divider(self):
        config = MachineConfig()
        assert config.multiplier.latency < config.divider.latency

    def test_bad_core_count(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_cores=0)

    def test_bad_frequency(self):
        with pytest.raises(ConfigError):
            MachineConfig(frequency_hz=0)

    def test_bad_quantum(self):
        with pytest.raises(ConfigError):
            MachineConfig(os_quantum_seconds=0)


class TestAuditorConfig:
    def test_paper_sizing(self):
        auditor = AuditorConfig()
        assert auditor.n_monitors == 2
        assert auditor.histogram_bins == 128
        assert auditor.accumulator_max == 65535
        assert auditor.histogram_entry_max == 65535

    def test_super_secure_mode_possible(self):
        """The paper mentions monitoring all units in super-secure
        environments; the config supports more monitor slots."""
        auditor = AuditorConfig(n_monitors=9)
        assert auditor.n_monitors == 9

    def test_bad_monitors(self):
        with pytest.raises(ConfigError):
            AuditorConfig(n_monitors=0)

    def test_bad_bins(self):
        with pytest.raises(ConfigError):
            AuditorConfig(histogram_bins=1)

    def test_bad_widths(self):
        with pytest.raises(ConfigError):
            AuditorConfig(accumulator_bits=0)
