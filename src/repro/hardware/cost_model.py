"""Area / power / latency estimates for the CC-auditor (Table I).

The paper sizes the CC-auditor with Cacti 5.3. Cacti is a C++ tool we
cannot ship, so this module provides an analytical SRAM/register cost
model *calibrated to the paper's reported values*: per-bit area and
dynamic-power constants per structure class, and an access latency with a
mild logarithmic size dependence. With the paper's structure parameters it
reproduces Table I; with other parameters it extrapolates the way a
first-order SRAM model does (linear area/power in bits, log latency).

Structure classes:

- ``"buffer"`` — small SRAM buffers (the two 128 x 16-bit histogram buffers)
- ``"register"`` — flip-flop register files (vector registers, accumulators,
  countdown registers)
- ``"detector"`` — the conflict-miss detector: bloom-filter bit arrays plus
  per-block metadata columns (denser arrays, parallel short probes)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.config import CONTEXT_ID_BITS, AuditorConfig, CacheConfig
from repro.errors import HardwareError

#: Calibration anchors, from Table I of the paper.
#: (bits, area mm^2, power mW, latency ns) per structure class.
_ANCHORS = {
    "buffer": (4096.0, 0.0028, 2.8, 0.17),
    "register": (2144.0, 0.0011, 0.8, 0.17),
    "detector": (45056.0, 0.004, 5.4, 0.12),
}

#: Latency grows ~ this many ns per doubling of structure size.
_LATENCY_LOG_SLOPE = 0.01


@dataclass(frozen=True)
class CostEstimate:
    """Cost of one structure: area (mm^2), dynamic power (mW), latency (ns)."""

    name: str
    bits: int
    area_mm2: float
    power_mw: float
    latency_ns: float

    def scaled(self, name: str, bits: int) -> "CostEstimate":
        """Extrapolate this estimate to a structure of a different size."""
        if bits <= 0:
            raise HardwareError(f"structure must have positive bits, got {bits}")
        ratio = bits / self.bits
        latency = self.latency_ns + _LATENCY_LOG_SLOPE * math.log2(max(ratio, 1e-9))
        return CostEstimate(
            name=name,
            bits=bits,
            area_mm2=self.area_mm2 * ratio,
            power_mw=self.power_mw * ratio,
            latency_ns=max(latency, 0.01),
        )


def _anchor(kind: str) -> CostEstimate:
    if kind not in _ANCHORS:
        raise HardwareError(
            f"unknown structure class {kind!r}; choose from {sorted(_ANCHORS)}"
        )
    bits, area, power, latency = _ANCHORS[kind]
    return CostEstimate(kind, int(bits), area, power, latency)


def estimate_structure(kind: str, name: str, bits: int) -> CostEstimate:
    """Cost of an arbitrary structure of ``bits`` bits in class ``kind``."""
    return _anchor(kind).scaled(name, bits)


def histogram_buffer_bits(config: AuditorConfig) -> int:
    """Bits in the auditor's histogram buffers (two slots)."""
    return (
        config.n_monitors * config.histogram_bins * config.histogram_entry_bits
    )


def register_bits(config: AuditorConfig) -> int:
    """Bits in the vector registers, accumulators and countdown registers."""
    vectors = 2 * config.vector_register_bytes * 8
    accumulators = config.n_monitors * config.accumulator_bits
    countdowns = config.n_monitors * config.countdown_bits
    return vectors + accumulators + countdowns


def detector_bits(auditor: AuditorConfig, cache: CacheConfig) -> int:
    """Bits in the conflict-miss detector.

    Per the paper: ``generations`` three-hash bloom filters totalling
    4 x #cacheblocks bits, plus 7 metadata bits per cache block (4
    generation bits + 3 owner-context bits).
    """
    blooms = auditor.generations * cache.n_blocks
    metadata = (auditor.generations + CONTEXT_ID_BITS) * cache.n_blocks
    return blooms + metadata


def estimate_auditor_costs(
    auditor: AuditorConfig = None, cache: CacheConfig = None
) -> Dict[str, CostEstimate]:
    """Reproduce Table I: costs of the three CC-auditor structure groups.

    Returns a dict keyed ``"histogram_buffers"``, ``"registers"``,
    ``"conflict_miss_detector"``. With default configs the values match the
    paper's Cacti 5.3 numbers.
    """
    auditor = auditor or AuditorConfig()
    cache = cache or CacheConfig()
    return {
        "histogram_buffers": estimate_structure(
            "buffer", "histogram_buffers", histogram_buffer_bits(auditor)
        ),
        "registers": estimate_structure(
            "register", "registers", register_bits(auditor)
        ),
        "conflict_miss_detector": estimate_structure(
            "detector", "conflict_miss_detector", detector_bits(auditor, cache)
        ),
    }


def total_area_mm2(costs: Dict[str, CostEstimate]) -> float:
    """Total CC-auditor area — compare against ~263 mm^2 for an Intel i7."""
    return sum(c.area_mm2 for c in costs.values())


def total_power_mw(costs: Dict[str, CostEstimate]) -> float:
    """Total CC-auditor dynamic power — compare against 130 W peak i7."""
    return sum(c.power_mw for c in costs.values())
