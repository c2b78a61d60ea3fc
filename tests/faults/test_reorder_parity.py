"""Exact parity: the reorder injector's block permutation vs one per block.

``ReorderInjector._block_permutation`` shuffles every full block as a
row of one matrix (``Generator.permuted``) and the tail with one
``permutation``. The reference is the loop it replaced, kept verbatim
below: one ``permutation`` per block of two or more entries. Both must
return the same permutation, or both ``None`` when no entry moved, leave
the generator in the same state, and count the same corrupted values.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ReorderInjector
from repro.pipeline.source import ConflictRecords

pytestmark = pytest.mark.parity


class LoopReorderInjector(ReorderInjector):
    """The reorder injector with its per-block permutation loop."""

    def _block_permutation(self, n: int) -> Optional[np.ndarray]:
        if n < 2 or self.window < 2:
            return None
        perm = np.arange(n)
        changed = False
        for lo in range(0, n, self.window):
            hi = min(lo + self.window, n)
            if hi - lo < 2:
                continue
            block = self.rng.permutation(hi - lo)
            if np.any(block != np.arange(hi - lo)):
                changed = True
            perm[lo:hi] = lo + block
        return perm if changed else None


def _twins(window, seed):
    return ReorderInjector(window, seed=seed), LoopReorderInjector(window, seed=seed)


def _records(n):
    rng = np.random.default_rng(n)
    return ConflictRecords(
        times=np.arange(n, dtype=np.int64),
        replacers=rng.integers(0, 4, size=n).astype(np.int64),
        victims=rng.integers(0, 4, size=n).astype(np.int64),
    )


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


def _assert_twins_agree(injector, reference, n):
    assert _same(injector._block_permutation(n), reference._block_permutation(n))
    assert injector.rng.bit_generator.state == reference.rng.bit_generator.state


class TestBlockPermutationParity:
    @settings(max_examples=150, deadline=None)
    @given(
        window=st.one_of(st.integers(0, 70), st.sampled_from((100, 4096, 5000))),
        sizes=st.lists(st.integers(0, 6_000), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_permutations_and_draws(self, window, sizes, seed):
        """Successive calls of any sizes, full blocks and tails alike."""
        injector, reference = _twins(window, seed)
        for n in sizes:
            _assert_twins_agree(injector, reference, n)

    @settings(max_examples=40, deadline=None)
    @given(
        window=st.sampled_from((2, 3, 8, 64, 4096)),
        sizes=st.lists(st.integers(0, 3_000), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_perturbations_and_corrupted_counts(self, window, sizes, seed):
        """Through ``_perturb_counts`` and ``_perturb_conflicts``: same
        outputs and the same ``values_corrupted`` after every call."""
        injector, reference = _twins(window, seed)
        for n in sizes:
            counts = np.arange(n, dtype=np.int64) * 3
            out, ref_out = (
                inj._perturb_counts(counts) for inj in (injector, reference)
            )
            assert _same(out, ref_out)
            recs = _records(n)
            out, ref_out = (
                inj._perturb_conflicts(recs) for inj in (injector, reference)
            )
            assert (out is None) == (ref_out is None)
            if out is not None:
                assert np.array_equal(out.times, ref_out.times)
                assert np.array_equal(out.replacers, ref_out.replacers)
                assert np.array_equal(out.victims, ref_out.victims)
            assert injector.values_corrupted == reference.values_corrupted

    @pytest.mark.parametrize("window", (2, 8, 4096))
    def test_large_inputs(self, window):
        injector, reference = _twins(window, 7)
        _assert_twins_agree(injector, reference, 40_003)

    def test_unchanged_permutation_is_none(self):
        """A draw that moves nothing returns ``None`` and corrupts no
        value, as the loop did."""
        seed = next(
            s for s in range(200)
            if LoopReorderInjector(2, seed=s)._block_permutation(2) is None
        )
        injector, reference = _twins(2, seed)
        counts = np.array([5, 9], dtype=np.int64)
        assert injector._perturb_counts(counts) is None
        assert reference._perturb_counts(counts) is None
        assert injector.values_corrupted == reference.values_corrupted == 0
        assert injector.rng.bit_generator.state == reference.rng.bit_generator.state
