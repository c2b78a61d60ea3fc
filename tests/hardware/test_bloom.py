"""Tests for the bloom filter: no false negatives, bounded false positives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hardware.bloom import BloomFilter


class TestBasics:
    def test_empty_contains_nothing(self):
        bloom = BloomFilter(1024)
        assert not bloom.contains(42)

    def test_added_key_found(self):
        bloom = BloomFilter(1024)
        bloom.add(42)
        assert bloom.contains(42)
        assert 42 in bloom

    def test_clear(self):
        bloom = BloomFilter(1024)
        bloom.add(42)
        bloom.clear()
        assert not bloom.contains(42)
        assert bloom.insertions == 0

    def test_bad_size(self):
        with pytest.raises(HardwareError):
            BloomFilter(0)

    def test_bad_hash_count(self):
        with pytest.raises(HardwareError):
            BloomFilter(64, n_hashes=0)

    def test_fill_ratio_grows(self):
        bloom = BloomFilter(256, n_hashes=3)
        assert bloom.fill_ratio == 0.0
        bloom.add(1)
        assert 0 < bloom.fill_ratio <= 3 / 256

    def test_deterministic_across_instances(self):
        a, b = BloomFilter(512), BloomFilter(512)
        a.add(1234)
        b.add(1234)
        assert a.contains(1234) and b.contains(1234)
        assert a.bits.tolist() == b.bits.tolist()


class TestNoFalseNegatives:
    @settings(max_examples=30)
    @given(st.sets(st.integers(0, 2**48), max_size=200))
    def test_every_inserted_key_found(self, keys):
        bloom = BloomFilter(4096, n_hashes=3)
        for key in keys:
            bloom.add(key)
        assert all(bloom.contains(key) for key in keys)


class TestFalsePositiveRate:
    def test_rate_reasonable_at_paper_sizing(self):
        """Paper sizing: 4096-bit filter per generation holding up to ~1024
        tags (one generation's worth of a 4096-block cache)."""
        bloom = BloomFilter(4096, n_hashes=3)
        inserted = set(range(0, 1024 * 7, 7))
        for key in inserted:
            bloom.add(key)
        probes = [k for k in range(1_000_000, 1_010_000) if k not in inserted]
        fp = sum(bloom.contains(k) for k in probes) / len(probes)
        assert fp < 0.25
        # The analytic estimate should be in the same ballpark.
        assert bloom.false_positive_rate() == pytest.approx(fp, abs=0.1)


class TestProbeCache:
    def test_probe_positions_stable_across_clear(self):
        bloom = BloomFilter(512, n_hashes=3)
        first = tuple(bloom._indices(1234))
        bloom.add(1234)
        bloom.clear()
        assert tuple(bloom._indices(1234)) == first
        assert not bloom.contains(1234)  # bits cleared, positions cached

    def test_distinct_keys_distinct_probes_mostly(self):
        bloom = BloomFilter(4096, n_hashes=3)
        probe_sets = {tuple(bloom._indices(k)) for k in range(500)}
        assert len(probe_sets) > 490  # collisions possible but rare
