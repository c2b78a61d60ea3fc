"""Shared utilities: RNG plumbing, bit messages, statistics."""

from repro.util.bitstream import Message, bit_error_rate, bits_from_int, int_from_bits
from repro.util.rng import derive_rng, make_rng
from repro.util.stats import (
    histogram_mean,
    histogram_variance,
    poisson_pmf,
    sample_counts_to_histogram,
)
from repro.util.strings import discretize_histogram

__all__ = [
    "Message",
    "bit_error_rate",
    "bits_from_int",
    "int_from_bits",
    "derive_rng",
    "make_rng",
    "histogram_mean",
    "histogram_variance",
    "poisson_pmf",
    "sample_counts_to_histogram",
    "discretize_histogram",
]
