"""The one batched lower bound (``repro.descent.lower_bound``).

Its forms, the whole-row compare below ``BRANCHLESS_FROM`` queries,
the branchless search from there up and the sorted search of one row
that every query shares, must return each query's ``np.searchsorted``
count over its row's window, clamped to ``width - 1`` (unclamped with
``exact``), and the flat index of that key.  Rows are non-decreasing
with sentinel padding, some full; the mirror's strided rows put the
window between other columns.
"""

import numpy as np
import pytest

from repro.descent import BRANCHLESS_FROM, lower_bound
from repro.keys import KEY32, KEY64

BATCHES = [1, BRANCHLESS_FROM - 1, BRANCHLESS_FROM, 4 * BRANCHLESS_FROM]


def make_grid(rng, spec, width, n_rows, lo, stride):
    """``n_rows`` rows of ``stride`` columns whose window ``[lo, lo +
    width)`` holds a non-decreasing row (repeats allowed) of a random
    number of keys, every fourth row full, then sentinel padding; the
    other columns are noise."""
    top = spec.max_value
    grid = rng.integers(0, top, size=(n_rows, stride), dtype=spec.dtype,
                        endpoint=True)
    for row in range(n_rows):
        m = width if row % 4 == 0 else int(rng.integers(0, width))
        keys = np.sort(rng.integers(1, top - 1, size=m, dtype=spec.dtype))
        grid[row, lo:lo + width] = top
        grid[row, lo:lo + m] = keys
    return grid


def make_queries(rng, spec, grid, lo, width, n):
    """Per query a row and a probe: 0, the maximum key, the sentinel,
    a key above every key of its row, one of its row's keys, or any."""
    top = spec.dtype(spec.max_value)
    rows = rng.integers(0, grid.shape[0], size=n).astype(np.int64)
    window = grid[rows, lo:lo + width]
    above = np.where(window < top, window, 0).max(axis=1) + spec.dtype(1)
    probes = np.stack([
        np.zeros(n, dtype=spec.dtype),
        np.full(n, top - spec.dtype(1)),
        np.full(n, top),
        above,
        window[np.arange(n), rng.integers(0, width, size=n)],
        rng.integers(0, top, size=n, dtype=spec.dtype, endpoint=True),
    ])
    q = probes[rng.integers(0, len(probes), size=n), np.arange(n)]
    return rows, q


@pytest.mark.parametrize("spec", [KEY64, KEY32], ids=["u64", "u32"])
@pytest.mark.parametrize("strided", [False, True], ids=["dense", "mirror"])
@pytest.mark.parametrize("width", [4, 8, 12, 16, 64, 256])
@pytest.mark.parametrize("n", BATCHES)
def test_both_forms_equal_searchsorted(spec, strided, width, n):
    rng = np.random.default_rng(width * 1000 + n + 7 * strided)
    # the mirror's row: an index line before the keys, refs after them
    lo = 8 if strided else 0
    stride = lo + 2 * width if strided else width
    grid = make_grid(rng, spec, width, 40, lo, stride)
    rows, q = make_queries(rng, spec, grid, lo, width, n)
    want = np.array([
        np.searchsorted(grid[r, lo:lo + width], x, side="left")
        for r, x in zip(rows.tolist(), q)
    ], dtype=np.int64)
    # the batch exercises a full row's query above all its keys
    assert n == 1 or np.any(want == width)
    for exact, count in ((False, np.minimum(want, width - 1)),
                         (True, want)):
        pos, k = lower_bound(grid, lo, width, rows, q, exact=exact)
        np.testing.assert_array_equal(k, count)
        np.testing.assert_array_equal(pos, rows * stride + lo + count)


@pytest.mark.parametrize("width", [4, 8, 64])
@pytest.mark.parametrize("n", [0, 1, 4 * BRANCHLESS_FROM])
def test_one_row_for_every_query(width, n):
    """A scalar row (a root every query searches) is one sorted search
    with the same answers as that row repeated per query."""
    rng = np.random.default_rng(width + n)
    grid = make_grid(rng, KEY64, width, 8, 8, 8 + 2 * width)
    _rows, q = make_queries(rng, KEY64, grid, 8, width, n)
    for row in (0, 3):
        for exact in (False, True):
            pos, k = lower_bound(grid, 8, width, row, q, exact=exact)
            want = lower_bound(grid, 8, width,
                               np.full(n, row, dtype=np.int64), q,
                               exact=exact)
            np.testing.assert_array_equal(k, want[1])
            np.testing.assert_array_equal(pos, want[0])


def test_an_empty_batch():
    grid = np.zeros((4, 8), dtype=np.uint64)
    pos, k = lower_bound(grid, 0, 8, np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.uint64))
    assert pos.shape == k.shape == (0,)
