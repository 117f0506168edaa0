"""GPU inner-node search for the implicit HB+-tree.

:func:`implicit_search_kernel` is a line-for-line port of the paper's
appendix Snippet 3 to the SIMT interpreter: ``F_I`` threads per query,
per-thread key comparison, neighbour-flag reduction in shared memory,
``__syncthreads`` barriers between phases.

:func:`implicit_search_vectorized` is its numpy twin used by the
benchmarks: identical results and identical coalesced-transaction
counts (asserted by the test suite), several orders of magnitude
faster to simulate.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

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


def implicit_search_vectorized(
    iseg: np.ndarray,
    level_offsets: Sequence[int],
    level_sizes: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    teams_per_warp: int = 4,
) -> Tuple[np.ndarray, int]:
    """Vectorised twin of Snippet 3.

    Returns ``(leaf_indices, global_transactions)`` where the
    transaction count reproduces the coalescing behaviour of the
    literal kernel: teams within a warp reading the *same* node line
    share one 64-byte transaction (which is what happens near the root).
    """
    q = np.asarray(queries)
    node = np.zeros(len(q), dtype=np.int64)
    # the node-id stream of every level: one 64-byte line per distinct
    # node within each warp, counted once after the walk
    streams = np.empty((depth, len(q)), dtype=np.int64)
    for i in range(depth):
        view = iseg[
            level_offsets[i]: level_offsets[i] + level_sizes[i]
        ].reshape(-1, fanout)
        streams[i] = node
        k = np.sum(view[node] < q[:, None], axis=1)
        node = node * fanout + k
    # query loads: one coalesced read of the query buffer per warp team
    # group (charged by the bucket pipeline, not here)
    transactions = _windowed_distinct(streams, teams_per_warp)
    return node, transactions


def implicit_search_from(
    iseg: np.ndarray,
    level_offsets: Sequence[int],
    level_sizes: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    start_levels: np.ndarray,
    start_nodes: np.ndarray,
) -> np.ndarray:
    """Resume the inner-node descent from per-query (level, node) pairs.

    Used by the load-balanced search (section 5.5): the CPU walked the
    top ``D`` (or ``D+1``) levels, the GPU continues from there.
    """
    node, _txns = implicit_search_from_counted(
        iseg, level_offsets, level_sizes, depth, fanout, queries,
        start_levels, start_nodes,
    )
    return node


def implicit_search_from_counted(
    iseg: np.ndarray,
    level_offsets: Sequence[int],
    level_sizes: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    start_levels: np.ndarray,
    start_nodes: np.ndarray,
    teams_per_warp: int = 4,
) -> Tuple[np.ndarray, int]:
    """:func:`implicit_search_from` plus the coalesced-transaction count.

    Transactions follow the same model as
    :func:`implicit_search_vectorized` — one 64-byte line per distinct
    node among the teams of a warp — charged only for the levels a
    query actually walks on the GPU.  With every ``start_levels`` at 0
    the result (both outputs) is identical to the full vectorised
    descent, which is what lets the adaptive engines treat the
    unbalanced path as the (D=0, R=0) corner of the split space.
    """
    q = np.asarray(queries)
    node = np.asarray(start_nodes, dtype=np.int64).copy()
    start = np.asarray(start_levels, dtype=np.int64)
    # each level's row holds the nodes of the queries that walk it on
    # the GPU, packed in query order; one count after the walk
    streams = np.empty((depth, len(q)), dtype=np.int64)
    walking = np.zeros(depth, dtype=np.int64)
    for level in range(depth):
        active = start <= level
        sub = node[active]
        if len(sub) == 0:
            continue
        streams[level, :len(sub)] = sub
        walking[level] = len(sub)
        view = iseg[
            level_offsets[level]: level_offsets[level] + level_sizes[level]
        ].reshape(-1, fanout)
        k = np.sum(view[sub] < q[active, None], axis=1)
        node[active] = sub * fanout + k
    return node, _windowed_distinct(streams, teams_per_warp, walking)
