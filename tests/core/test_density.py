"""Tests for Δt selection."""

import pytest

from repro.core.density import (
    MAX_DELTA_T,
    MIN_DELTA_T,
    choose_delta_t,
    default_delta_t,
)
from repro.errors import DetectionError


class TestChooseDeltaT:
    def test_alpha_rule(self):
        # Mean rate 1/5000 cycles, alpha 20 -> Δt = 100k (the bus value).
        assert choose_delta_t(1 / 5000, alpha=20) == 100_000

    def test_clamped_low(self):
        assert choose_delta_t(1.0, alpha=1) == MIN_DELTA_T == 16

    def test_clamped_high(self):
        assert choose_delta_t(1e-9, alpha=10) == MAX_DELTA_T == 10_000_000

    def test_bad_rate(self):
        with pytest.raises(DetectionError):
            choose_delta_t(0.0, alpha=1)

    def test_bad_alpha(self):
        with pytest.raises(DetectionError):
            choose_delta_t(0.1, alpha=0)


class TestDefaults:
    def test_paper_values(self):
        assert default_delta_t("membus") == 100_000
        assert default_delta_t("divider") == 500

    def test_unknown_unit(self):
        with pytest.raises(DetectionError):
            default_delta_t("gpu")

