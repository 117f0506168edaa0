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
    teams_per_warp: int = 4,
    frontier_block: "int | None" = None,
) -> Tuple[np.ndarray, int]:
    """Vectorised twin; returns ``(leaf_line_codes, transactions)``.

    Each level is a branchless lower bound over the node's ``fanout``
    keys in the flat I-segment — ``log2(fanout)`` gathers of one key
    per query.  Every mirrored node is non-decreasing (routing keys
    ascend within ``size``, the last used slot is pinned to the maximum
    and the padding holds it too), so the bound equals
    ``min(count(keys < q), fanout - 1)``: the child the literal
    index-line → key-line search picks.  The three line streams of
    every level (index line per node, key line per (node, group),
    reference per (node, slot)) go into one matrix that is counted once
    after the walk.

    ``frontier_block`` switches the transaction accounting to the
    level-wise frontier model: every line kind is deduplicated across a
    window of that many queries (the cooperative block — normally the
    whole bucket) instead of one warp's teams, the regular-layout
    analogue of
    :func:`repro.gpusim.kernels.frontier_search.frontier_search_vectorized`.
    Codes are identical either way — only the coalescing window moves.
    """
    q = np.asarray(queries)
    dedup = int(frontier_block) if frontier_block else teams_per_warp
    if dedup < 1:
        raise ValueError(f"dedup window must be >= 1, got {dedup}")
    n = len(q)
    streams = np.empty((3 * height - 1, n), dtype=np.int64)
    row = 0
    node = np.full(n, root, dtype=np.int64)
    for level in range(height - 1, -1, -1):
        offset = last_base if level == 0 else 0
        # flat index of each query's node's first key, then of its bound
        first = node * stride
        first += offset * stride + kpl
        pos = first.copy()
        step = fanout >> 1
        while step:
            pos += (iseg[pos + (step - 1)] < q) * step
            step >>= 1
        slot = pos - first
        # index line: one 64-byte transaction per distinct node per window
        streams[row] = node
        # key line: one per distinct (node, group)
        np.floor_divide(slot, kpl, out=streams[row + 1])
        streams[row + 1] += node * kpl
        if level == 0:
            txns = _windowed_distinct(streams, dedup)
            return node * fanout + slot, txns
        # reference: one (32-byte) transaction per distinct (node, slot)
        np.multiply(node, fanout, out=streams[row + 2])
        streams[row + 2] += slot
        node = iseg[pos + fanout].astype(np.int64)
        row += 3
    raise AssertionError("unreachable: height >= 1 always returns")
