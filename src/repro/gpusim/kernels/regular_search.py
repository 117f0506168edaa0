"""GPU inner-node search for the regular HB+-tree.

"Searching an inner node in the regular HB+-tree ... requires three
memory accesses instead of one and involves three steps" (section 5.3):

1. parallel search of the node's *index line* to pick the key line,
2. parallel search of that key line to pick the child slot,
3. one extra transfer to fetch the child reference.

The I-segment mirror is packed per node as ``index line | keys | refs``
(``1 + 2*K`` cache lines, exactly the Fig 2(c) structure), upper-pool
nodes first, last-level nodes after them.  At the last level the search
result *is* the big-leaf cache-line index (leaves share the last-level
node's pool index), so step 3 is skipped and the kernel returns
``node * F_I + line``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.descent import Level, regular_descend, regular_levels
from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.coalesce import (
    windowed_distinct as _windowed_distinct,
)
from repro.gpusim.memory import DeviceBuffer


def _team_reduce(flag_base, team, x, matched):
    """Neighbour-flag reduction (shared sub-generator, Snippet 3 style).

    Each thread publishes whether its key matched; the thread whose
    left neighbour did not match owns the answer.  Returns the reduced
    index to every thread of the team.
    """
    yield ("shst", "flag", flag_base + x + 1, 0)
    yield ("sync",)
    if matched:
        yield ("shst", "flag", flag_base + x + 1, 1)
    yield ("sync",)
    prev = yield ("shld", "flag", flag_base + x)
    if matched and prev == 0:
        yield ("shst", "result", team, x)
    yield ("sync",)
    res = yield ("shld", "result", team)
    return int(res)


def regular_search_kernel(ctx, iseg, stride, kpl, fanout, height, root,
                          last_base, queries, results):
    """Three-step descent; one team of ``kpl`` threads per query."""
    x, team = ctx.thread_idx
    q_idx = ctx.global_query_index
    flag_base = team * (kpl + 1)
    query = yield ("gld", queries, q_idx)
    yield ("shst", "flag", flag_base + x, 0)
    yield ("sync",)
    node = root
    answer = 0
    for level in range(height - 1, -1, -1):
        slot_base = (node + (last_base if level == 0 else 0)) * stride
        # step 1: index line
        ikey = yield ("gld", iseg, slot_base + x)
        g = yield from _team_reduce(flag_base, team, x, query <= ikey)
        g = min(g, kpl - 1)
        # step 2: the selected key line
        kkey = yield ("gld", iseg, slot_base + kpl + g * kpl + x)
        k = yield from _team_reduce(flag_base, team, x, query <= kkey)
        k = min(k, kpl - 1)
        child_slot = g * kpl + k
        if level == 0:
            answer = node * fanout + child_slot
            break
        # step 3: fetch the child reference (single-lane load)
        if x == 0:
            ref = yield ("gld", iseg, slot_base + kpl + fanout + child_slot)
            yield ("shst", "result", team, int(ref))
        yield ("sync",)
        node = int((yield ("shld", "result", team)))
    if x == 0:
        yield ("gst", results, q_idx, answer)


def launch_regular_search(
    device: GpuDevice,
    iseg: DeviceBuffer,
    stride: int,
    kpl: int,
    fanout: int,
    height: int,
    root: int,
    last_base: int,
    queries: np.ndarray,
):
    """Run the literal kernel; returns ``(leaf_line_codes, stats)``.

    Each result encodes ``last_level_node * F_I + leaf_line``.
    """
    teams_per_block = max(1, device.spec.warp_size // kpl) * 4
    n = len(queries)
    padded = teams_per_block * -(-n // teams_per_block)
    qbuf = device.memory.upload(
        "_queries_literal_reg", np.resize(np.asarray(queries), padded)
    )
    if n < padded:
        qbuf.array[n:] = 0
    rbuf = device.memory.upload(
        "_results_literal_reg", np.zeros(padded, dtype=np.int64)
    )
    grid = padded // teams_per_block
    shared = {
        "flag": ((teams_per_block * (kpl + 1),), np.int8),
        "result": ((teams_per_block,), np.int64),
    }
    stats = device.launch(
        regular_search_kernel,
        grid,
        (kpl, teams_per_block),
        iseg,
        stride,
        kpl,
        fanout,
        height,
        root,
        last_base,
        qbuf,
        rbuf,
        shared_decls=shared,
    )
    out = rbuf.array[:n].copy()
    device.memory.free("_queries_literal_reg")
    device.memory.free("_results_literal_reg")
    return out, stats


def regular_search_vectorized(
    iseg: np.ndarray,
    stride: int,
    kpl: int,
    fanout: int,
    height: int,
    root: int,
    last_base: int,
    queries: np.ndarray,
    group: int,
) -> Tuple[np.ndarray, int]:
    """Vectorised twin; returns ``(leaf_line_codes, transactions)``.

    :func:`~repro.descent.regular_levels` over the mirror's image, the
    walk the CPU tree runs over its pools.  Every mirrored node is
    non-decreasing (its last used slot is pinned to the maximum, and
    the padding holds it too), so the lower bound ``min(count(keys <
    q), fanout - 1)`` is the child the literal index-line → key-line
    search picks.  The walk's three line streams per level (index line,
    key line, reference) are counted once after it, one line per
    distinct id within each ``group``-query window: one warp's teams
    for the per-query kernel, the whole bucket for the frontier
    accounting.  Codes are identical for every window.
    """
    if group < 1:
        raise ValueError(f"dedup window group must be >= 1, got {group}")
    q = np.asarray(queries)
    streams = np.empty((3 * height - 1, len(q)), dtype=np.int64)
    # last-level nodes are packed behind the upper ones
    grid = iseg.reshape(-1, stride)
    last = Level(grid[last_base:], kpl, iseg[last_base * stride:], None)
    node, slot = regular_descend(regular_levels(
        last, Level(grid, kpl, iseg, None), height, root, fanout, kpl, q,
        streams,
    ))
    return node * fanout + slot, _windowed_distinct(streams, group)
