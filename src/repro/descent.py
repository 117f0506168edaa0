"""The paper's node search (section 5.3), one operation on every
layout: a node's first key not below the query.  :func:`lower_bound`
runs it for a batch in the form faster at the batch's size; every
batched descent and leaf probe (:func:`probe`) runs it, and so does
:func:`regular_levels`, the regular layout's one level walk over a CPU
tree's node pools or the GPU mirror's image.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

#: batch size from which :func:`lower_bound` runs the branchless search
#: instead of the whole-row compare: at row widths 64 and 4 the two tie
#: near 96 queries, at width 8 between 128 and 192 (per-site timings,
#: DESIGN.md section 8)
BRANCHLESS_FROM = 128


def lower_bound(grid, lo, width, rows, queries, exact=False):
    """Per query ``i``, the first key not below it in columns ``[lo, lo
    + width)`` of row ``rows[i]`` of the C-contiguous ``grid`` (each
    window non-decreasing).  Returns ``(pos, k)``: ``k`` keys are below
    the query (clamped to ``width - 1`` unless ``exact``), and key ``k``
    sits at flat index ``pos`` of ``grid``."""
    first = rows * grid.shape[1]
    if lo:
        first += lo
    # counting only width - 1 keys clamps the count
    cols = width if exact else width - 1
    if np.ndim(rows) == 0:
        # one row for every query (a root): one sorted search
        k = np.searchsorted(grid[rows, lo:lo + cols], queries)
        return first + k, k
    if len(queries) < BRANCHLESS_FROM:
        k = (grid.take(rows, axis=0)[:, lo:lo + cols]
             < queries[:, None]).sum(axis=1, dtype=np.int32)
        first += k
        return first, k
    flat = grid.reshape(-1)
    pos = first.copy()
    # the bound lies in [pos, pos + span); each step keeps one half
    span = width
    while span > 1:
        half = span >> 1
        pos += (flat[pos + (half - 1)] < queries) * half
        span -= half
    if exact:
        pos += flat[pos] < queries
    return pos, pos - first


def probe(keys, values, rows, queries, sentinel):
    """Answer each query from row ``rows[i]`` of a leaf store's
    ``keys`` / ``values`` grids: the value at its lower bound when the
    key there is the query, else ``sentinel``."""
    pos = lower_bound(keys, 0, keys.shape[1], rows, queries)[0]
    missing = queries.dtype.type(sentinel)
    found = (keys.reshape(-1)[pos] == queries) & (queries != missing)
    return np.where(found, values.reshape(-1)[pos], missing)


class Level(NamedTuple):
    """A regular-layout level: a ``keys`` grid, one row per node, keys
    from column ``lo``; child ``refs``, a pool's ``(node, slot)`` rows
    or the mirror's flat image (a ref ``fanout`` past its key); and a
    pool's node ``size``, which clamps the slot, or None for the mirror,
    whose nodes pin their last used key to the maximum."""

    keys: np.ndarray
    lo: int
    refs: np.ndarray
    size: Optional[np.ndarray]


def regular_levels(last: Level, upper: Level, height: int, root: int,
                   fanout: int, kpl: int, queries: np.ndarray,
                   streams: Optional[np.ndarray] = None):
    """The regular layout's level walk, root first (level 0 reads
    ``last``, the others ``upper``).  Yields ``(level, node, k, slot)``:
    each query's node, its :func:`lower_bound` count over the node's
    ``fanout`` keys and the child slot (the big-leaf line at level 0).
    Each level writes the lines a GPU node search reads into the
    ``(3 * height - 1) x n`` ``streams``, if given: node, (node, key
    line) and, above the last level, (node, slot)."""
    node = np.full(len(queries), root, dtype=np.int64)
    for row, level in zip(range(0, 3 * height, 3), range(height - 1, -1, -1)):
        view = upper if level else last
        pos, k = lower_bound(view.keys, view.lo, fanout,
                             root if row == 0 else node, queries)
        slot = k if view.size is None else \
            np.minimum(k, np.maximum(view.size[node] - 1, 0))
        if streams is not None:
            streams[row] = node
            np.floor_divide(slot, kpl, out=streams[row + 1])
            streams[row + 1] += node * kpl
            if level:
                np.multiply(node, fanout, out=streams[row + 2])
                streams[row + 2] += slot
        yield level, node, k, slot
        if level:
            # the mirror's gather reuses the bound's flat position
            node = (view.refs[node, slot] if view.size is not None
                    else view.refs[pos + fanout].astype(np.int64))


def regular_descend(walk):
    """Each query's big leaf and line: ``(node, slot)`` of a
    :func:`regular_levels` walk's last level."""
    for _level, node, _k, slot in walk:
        pass
    return node, slot
