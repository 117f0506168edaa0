"""``sorted_unique`` and the range router cuts built on it."""

import numpy as np
import pytest

from repro.keys import sorted_unique
from repro.service.router import RangeRouter


@pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int64])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 4096])
def test_matches_np_unique(dtype, n):
    rng = np.random.default_rng(n)
    x = rng.integers(0, max(2, n // 3), size=n).astype(dtype)
    got = sorted_unique(x)
    want = np.unique(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_strictly_increasing_input_is_not_sorted(monkeypatch, n):
    x = np.arange(n, dtype=np.uint64) * 3
    monkeypatch.setattr(np, "sort", None)  # any sort call would raise
    got = sorted_unique(x)
    assert got.dtype == x.dtype
    np.testing.assert_array_equal(got, x)


def test_input_left_unsorted():
    x = np.asarray([5, 1, 5, 3], dtype=np.uint64)
    sorted_unique(x)
    assert x.tolist() == [5, 1, 5, 3]


class TestRangeRouterCuts:
    def reference_cuts(self, keys, n_shards):
        sk = np.unique(keys)
        pos = (np.arange(1, n_shards) * len(sk)) // n_shards
        return np.unique(sk[pos])

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 7])
    def test_duplicate_and_unsorted_keys(self, n_shards):
        rng = np.random.default_rng(n_shards)
        keys = rng.integers(0, 500, size=2000).astype(np.uint64)
        assert len(np.unique(keys)) < len(keys)  # duplicates present
        r = RangeRouter.from_keys(keys, n_shards)
        np.testing.assert_array_equal(r.cuts,
                                      self.reference_cuts(keys, n_shards))
        # the cuts of a shuffled copy are the same
        rng.shuffle(keys)
        np.testing.assert_array_equal(
            RangeRouter.from_keys(keys, n_shards).cuts, r.cuts)

    def test_heavy_duplicates_collapse_cuts(self):
        keys = np.asarray([9] * 50 + [1] * 50 + [4], dtype=np.uint64)
        r = RangeRouter.from_keys(keys, 3)
        np.testing.assert_array_equal(r.cuts, self.reference_cuts(keys, 3))
