"""GPU inner-node search for the implicit HB+-tree.

:func:`implicit_search_kernel` is a line-for-line port of the paper's
appendix Snippet 3 to the SIMT interpreter: ``F_I`` threads per query,
per-thread key comparison, neighbour-flag reduction in shared memory,
``__syncthreads`` barriers between phases.

:func:`implicit_descend` is the numpy descent every implicit-layout
GPU stage runs — per-query or frontier kernel, full descent or (D, R)
split: identical leaf indices to both literal kernels and their
coalesced-transaction counts (asserted by the test suite), several
orders of magnitude faster to simulate.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.descent import lower_bound
from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.coalesce import (
    windowed_distinct as _windowed_distinct,
)
from repro.gpusim.kernels.frontier_search import validate_level_geometry
from repro.gpusim.memory import DeviceBuffer


def implicit_search_kernel(ctx, iseg, level_offsets, depth, fanout,
                           queries, results):
    """Paper Snippet 3: one team of ``fanout`` threads per query."""
    x, team = ctx.thread_idx
    q_idx = ctx.global_query_index
    flag_base = team * (fanout + 1)
    team_query = yield ("gld", queries, q_idx)
    yield ("shst", "flag", flag_base + x, 0)
    node_index = 0  # element offset of the current node within its level
    yield ("sync",)
    for i in range(depth):
        self_key = yield ("gld", iseg, level_offsets[i] + node_index + x)
        yield ("shst", "flag", flag_base + x + 1, 0)
        self_flag = 0
        if team_query <= self_key:
            yield ("shst", "flag", flag_base + x + 1, 1)
            self_flag = 1
        yield ("sync",)
        prev = yield ("shld", "flag", flag_base + x)
        if self_flag == 1 and prev == 0:
            yield ("shst", "result", team, x)
        yield ("sync",)
        result = yield ("shld", "result", team)
        node_index = (node_index + int(result)) * fanout
    if x == 0:
        yield ("gst", results, q_idx, node_index // fanout)


def launch_implicit_search(
    device: GpuDevice,
    iseg: DeviceBuffer,
    level_offsets: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
):
    """Run the literal kernel over all ``queries``.

    Returns ``(leaf_indices, stats)``.  Queries are padded to fill the
    last block (padding teams search for key 0, as a real launcher
    padding its input buffer would).  Geometry is validated up front —
    a mismatched ``level_offsets``/``depth``/``fanout`` raises
    ``ValueError`` instead of silently misindexing the I-segment.
    """
    validate_level_geometry(
        level_offsets, None, depth, fanout, iseg.array.size
    )
    teams_per_block = max(1, device.spec.warp_size // fanout) * 4
    n = len(queries)
    padded = teams_per_block * -(-n // teams_per_block)
    qbuf = device.memory.upload(
        "_queries_literal", np.resize(np.asarray(queries), padded)
    )
    if n < padded:
        qbuf.array[n:] = 0
    rbuf = device.memory.upload(
        "_results_literal", np.zeros(padded, dtype=np.int64)
    )
    grid = padded // teams_per_block
    shared = {
        "flag": ((teams_per_block * (fanout + 1),), np.int8),
        "result": ((teams_per_block,), np.int64),
    }
    stats = device.launch(
        implicit_search_kernel,
        grid,
        (fanout, teams_per_block),
        iseg,
        list(level_offsets),
        depth,
        fanout,
        qbuf,
        rbuf,
        shared_decls=shared,
    )
    out = rbuf.array[:n].copy()
    device.memory.free("_queries_literal")
    device.memory.free("_results_literal")
    return out, stats


def implicit_descend(
    iseg: np.ndarray,
    level_offsets: Sequence[int],
    level_sizes: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    start_levels: np.ndarray,
    start_nodes: np.ndarray,
    group: int,
) -> Tuple[np.ndarray, int]:
    """The implicit-layout descent of every kernel, full or split;
    returns ``(leaf_indices, transactions)``.

    Each query resumes at its ``start_levels`` entry from its
    ``start_nodes`` entry (all zeros: the full descent).  On every
    level it walks, a query gathers its node's keys and steps to child
    ``count(keys < q)`` — the child the literal kernels' neighbour-flag
    reduction picks.  The level's row of the stream matrix holds the
    walking queries' node ids, packed in query order, and one
    :func:`~repro.gpusim.kernels.coalesce.windowed_distinct` pass after
    the walk charges one 64-byte transaction per distinct node within
    each ``group``-query window.  That window is the only thing a
    kernel changes: one warp's teams for the per-query kernel
    (Snippet 3), the whole bucket for the frontier kernel (one
    cooperative block, as in
    :func:`~repro.gpusim.kernels.frontier_search.launch_frontier_search`).
    Query loads are charged by the bucket pipeline, not here.
    """
    validate_level_geometry(
        level_offsets, level_sizes, depth, fanout, iseg.size
    )
    if group < 1:
        raise ValueError(f"dedup window group must be >= 1, got {group}")
    q = np.asarray(queries)
    node = np.array(start_nodes, dtype=np.int64)
    start = np.asarray(start_levels, dtype=np.int64)
    streams = np.empty((depth, len(q)), dtype=np.int64)
    walking = np.zeros(depth, dtype=np.int64)
    # from this level down every query walks: no mask to build
    everyone = int(start.max(initial=0))
    for level in range(depth):
        if level < everyone:
            active = np.flatnonzero(start <= level)
            sub, qa = node[active], q[active]
        else:
            active, sub, qa = slice(None), node, q
        streams[level, :len(sub)] = sub
        walking[level] = len(sub)
        view = iseg[
            level_offsets[level]: level_offsets[level] + level_sizes[level]
        ].reshape(-1, fanout)
        # one key per child, so the bound's flat index is the child.  A
        # node's last key is pinned or bounds every query routed to it,
        # so the clamped count is exact.  Level 0 is the root.
        node[active] = lower_bound(view, 0, fanout, sub if level else 0,
                                   qa)[0]
    return node, _windowed_distinct(streams, group, walking)
