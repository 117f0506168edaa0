"""Warp-level memory-coalescing model shared by the vectorised descents.

Every vectorised search kernel charges one 64-byte device-memory
transaction per *distinct* line requested by the teams of a warp —
the behaviour of the hardware coalescer the paper's section 5.3 relies
on.  The count is a pure function of the per-query line-id streams, so
sorted query batches (runs of equal ids inside each warp) are charged
fewer transactions than arrival-order batches: that is exactly the
coalescing win the batch execution engine (:mod:`repro.core.batching`)
exploits.

A kernel writes the line-id stream of every level (and every line kind)
it walks into one ``(streams, queries)`` matrix and counts it once with
:func:`windowed_distinct`: one sortedness check over the whole matrix,
a per-window sort only when some window is out of order, one count.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def _sort_windows(s: np.ndarray, group: int) -> np.ndarray:
    """Copy of the ``(k, n)`` matrix ``s`` with every window sorted."""
    k, n = s.shape
    full = n // group * group
    out = np.empty_like(s)
    if full:
        out[:, :full] = np.sort(
            s[:, :full].reshape(k, -1, group), axis=2
        ).reshape(k, full)
    if full < n:
        out[:, full:] = np.sort(s[:, full:], axis=1)
    return out


def windowed_distinct(streams: np.ndarray, group: int,
                      lengths: Optional[Sequence[int]] = None) -> int:
    """Distinct values per consecutive ``group``-window, summed over
    every row of ``streams``.

    Row ``r`` is cut into windows ``[0, group), [group, 2*group), ...``
    (the last one partial) and each window contributes its number of
    distinct values — the transactions one warp (or one cooperative
    block, for the frontier kernels) pays for that stream.  Windows
    are sorted only when the single vectorised check finds one out of
    order; the count is identical either way.

    ``lengths`` (one per row) restricts row ``r`` to its first
    ``lengths[r]`` entries: a split-descent kernel packs the queries
    that walk a level on the GPU at the front of that level's row.  The
    entries past a row's length are working space and get overwritten.
    """
    s = np.asarray(streams)
    if s.ndim == 1:
        s = s[None, :]
    if s.size == 0:
        return 0
    if group < 1:
        raise ValueError(f"dedup window must be >= 1, got {group}")
    k, n = s.shape
    per_row = -(-n // group)
    windows = k * per_row
    if lengths is not None:
        # pad each row with its last entry: no new value and no step
        # down, so a window past the row's length adds nothing but its
        # own one, which is not counted
        for r, length in enumerate(lengths):
            length = int(length)
            s[r, length:] = s[r, length - 1] if length else 0
            windows -= per_row - -(-length // group)
    down = s[:, 1:] < s[:, :-1]
    if group < n:
        # a window boundary may step down freely
        down[:, group - 1::group] = False
    if down.any():
        s = _sort_windows(s, group)
    change = s[:, 1:] != s[:, :-1]
    if group < n:
        change[:, group - 1::group] = False
    return int(np.count_nonzero(change)) + windows
