"""Level-wise frontier traversal for the implicit HB+-tree.

The per-query kernel (:mod:`repro.gpusim.kernels.implicit_search`,
paper Snippet 3) descends one query per thread team, root to leaf —
so concurrent queries of one bucket scatter across the whole I-segment
every step, and only *warp-local* line sharing is coalesced away.  The
FPGA level-wise batch-search result (arXiv:2604.21117) and the BS-tree
sorted-batch layouts (arXiv:2505.01180) point at the alternative this
module implements: process the entire **sorted** bucket one tree level
at a time as a *frontier* of (query-range, node) pairs.

Because the bucket the engines hand the kernel is sorted and distinct
(:class:`repro.core.batching.BucketPlan`), queries that sit in the same
inner node at some level are **adjacent** — the frontier is a sequence
of runs, and each level's loads collapse to one contiguous sweep over
that level's distinct nodes.  The per-level transaction bill is the
number of frontier entries, counted by the same
:func:`~repro.gpusim.kernels.coalesce.windowed_distinct` pass the
per-query kernels use — one count over every level's frontier after
the walk, with the *whole block* as the dedup window instead of one
warp.  Near the root that is 1 transaction for the
bucket where the per-query kernel pays one per warp window; at the
bottom the two models meet (every query its own node).

Two implementations, verified equivalent by the test suite:

* :func:`frontier_search_kernel` — the faithful SIMT-interpreter
  version: one cooperative block, per level each run's first team
  (found with a shared-memory max-scan) loads the node's key line into
  a shared tile, every team of the run reads the tile, and the child
  pick is the per-query kernel's Snippet-3 neighbour-flag reduction —
  bit-identical child indices by construction.
* :func:`frontier_search_vectorized` — the numpy twin: run-compressed
  key gathers, block-window ``windowed_distinct`` accounting, identical
  results for *any* query order (unsorted input simply yields more
  runs, never different answers).

:func:`frontier_search_from_counted` is the (D, R)-split twin: it
resumes per-query from the nodes the CPU walked to, exactly like
:func:`~repro.gpusim.kernels.implicit_search.implicit_search_from_counted`,
so the adaptive engines can pick the frontier kernel at any split
point.

:func:`validate_level_geometry` guards every kernel-launch boundary:
a mismatched ``level_offsets``/``depth``/``fanout`` combination raises
a clear ``ValueError`` instead of silently misindexing the I-segment.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.coalesce import (
    windowed_distinct as _windowed_distinct,
)
from repro.gpusim.memory import DeviceBuffer
from repro.gpusim.simt import GpuKernelStats

#: the per-query Snippet-3 kernel (the default everywhere)
PER_QUERY = "per_query"
#: the level-wise frontier kernel of this module
FRONTIER = "frontier"
#: every GPU search kernel the trees / engines / balancers select from
KERNELS = (PER_QUERY, FRONTIER)


def validate_kernel(kernel: str) -> str:
    """Reject unknown kernel names with a clear error."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown GPU search kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def validate_level_geometry(
    level_offsets: Sequence[int],
    level_sizes: Optional[Sequence[int]],
    depth: int,
    fanout: int,
    total_elements: int,
) -> None:
    """Check I-segment level geometry at a kernel-launch boundary.

    The implicit kernels index ``iseg[level_offsets[i] + node*fanout +
    x]`` with no bounds checks (the catch-all sentinels keep a
    *consistent* layout in bounds) — so an inconsistent geometry does
    not crash, it silently reads the wrong level.  This raises
    ``ValueError`` instead.  ``level_sizes`` may be ``None``; sizes are
    then derived from consecutive offsets and ``total_elements``.
    Cost is O(depth) — negligible next to any launch.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    if depth == 0:
        return
    offsets = [int(o) for o in level_offsets]
    if len(offsets) < depth:
        raise ValueError(
            f"level_offsets names {len(offsets)} levels but depth is {depth}"
        )
    if offsets[0] != 0:
        raise ValueError(
            f"the root level must start at element 0, got offset {offsets[0]}"
        )
    if level_sizes is not None:
        sizes = [int(s) for s in level_sizes]
        if len(sizes) < depth:
            raise ValueError(
                f"level_sizes names {len(sizes)} levels but depth is {depth}"
            )
    else:
        sizes = [offsets[i + 1] - offsets[i] for i in range(depth - 1)]
        sizes.append(int(total_elements) - offsets[depth - 1])
    prev_nodes = None
    for i in range(depth):
        size = sizes[i]
        if size <= 0 or size % fanout:
            raise ValueError(
                f"level {i} holds {size} elements — not a positive "
                f"multiple of fanout {fanout}"
            )
        if i + 1 < depth and offsets[i] + size != offsets[i + 1]:
            raise ValueError(
                f"level {i} spans [{offsets[i]}, {offsets[i] + size}) but "
                f"level {i + 1} starts at {offsets[i + 1]} — levels must "
                f"tile the I-segment contiguously"
            )
        nodes = size // fanout
        if prev_nodes is not None and nodes > prev_nodes * fanout:
            raise ValueError(
                f"level {i} has {nodes} nodes but level {i - 1}'s "
                f"{prev_nodes} nodes address at most {prev_nodes * fanout}"
            )
        prev_nodes = nodes
    end = offsets[depth - 1] + sizes[depth - 1]
    if end > total_elements:
        raise ValueError(
            f"levels end at element {end} but the I-segment holds "
            f"{total_elements} elements"
        )


def _run_starts(node: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first entry of each frontier run."""
    starts = np.empty(len(node), dtype=bool)
    starts[0] = True
    np.not_equal(node[1:], node[:-1], out=starts[1:])
    return starts


def frontier_search_vectorized(
    iseg: np.ndarray,
    level_offsets: Sequence[int],
    level_sizes: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    block_queries: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Vectorised frontier descent; ``(leaf_indices, transactions)``.

    Per level the frontier (the per-query node-id stream) is
    run-compressed: each run's key line is gathered once and broadcast
    to the run's queries, and the level is charged one 64-byte
    transaction per distinct node within each ``block_queries`` window
    (default: the whole bucket — one cooperative block, matching
    :func:`launch_frontier_search`).  The child pick is the same
    ``count(keys < q)`` the per-query twin computes, so leaf indices
    are bit-identical to
    :func:`~repro.gpusim.kernels.implicit_search.implicit_search_vectorized`
    for any input — sorted input is only *cheaper*, never different.
    """
    q = np.asarray(queries)
    n = len(q)
    node = np.zeros(n, dtype=np.int64)
    if n == 0 or depth == 0:
        return node, 0
    validate_level_geometry(
        level_offsets, level_sizes, depth, fanout, iseg.size
    )
    group = int(block_queries) if block_queries else n
    if group < 1:
        raise ValueError(f"block_queries must be >= 1, got {block_queries}")
    # the frontier of every level, counted once after the walk: one
    # 64-byte line per distinct node within each block window
    streams = np.empty((depth, n), dtype=np.int64)
    for i in range(depth):
        view = iseg[
            level_offsets[i]: level_offsets[i] + level_sizes[i]
        ].reshape(-1, fanout)
        starts = _run_starts(node)
        run_id = np.cumsum(starts) - 1
        keys = view[node[starts]][run_id]
        streams[i] = node
        k = np.sum(keys < q[:, None], axis=1)
        node = node * fanout + k
    return node, _windowed_distinct(streams, group)


def frontier_search_from_counted(
    iseg: np.ndarray,
    level_offsets: Sequence[int],
    level_sizes: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    start_levels: np.ndarray,
    start_nodes: np.ndarray,
    block_queries: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Frontier descent resumed from per-query (level, node) pairs.

    The (D, R)-split twin of :func:`frontier_search_vectorized`,
    mirroring
    :func:`~repro.gpusim.kernels.implicit_search.implicit_search_from_counted`:
    only queries whose ``start_levels`` reach a level participate in
    its frontier.  With every start level at 0 both outputs equal the
    full frontier descent.
    """
    q = np.asarray(queries)
    node = np.asarray(start_nodes, dtype=np.int64).copy()
    start = np.asarray(start_levels, dtype=np.int64)
    n = len(q)
    if n == 0 or depth == 0:
        return node, 0
    validate_level_geometry(
        level_offsets, level_sizes, depth, fanout, iseg.size
    )
    group = int(block_queries) if block_queries else n
    if group < 1:
        raise ValueError(f"block_queries must be >= 1, got {block_queries}")
    streams = np.empty((depth, n), dtype=np.int64)
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
        starts = _run_starts(sub)
        run_id = np.cumsum(starts) - 1
        keys = view[sub[starts]][run_id]
        k = np.sum(keys < q[active, None], axis=1)
        node[active] = sub * fanout + k
    return node, _windowed_distinct(streams, group, walking)


def frontier_search_kernel(ctx, iseg, level_offsets, depth, fanout,
                           queries, results, teams):
    """Literal level-wise frontier kernel (one cooperative block).

    One team of ``fanout`` threads per query, all teams in one block so
    the frontier can be deduplicated block-wide in shared memory.  Per
    level, five phases:

    1. lane 0 of each team publishes its node id to the shared frontier;
    2. each team checks its left neighbour — the first team of a run of
       equal node ids is the run's *representative*;
    3. an inclusive max-scan (Hillis-Steele) over the representative
       indices gives every team its run's owner;
    4. the owner team alone loads the node's key line from global
       memory into a shared tile (one coalesced line per frontier run
       — the dedup the transaction model charges for); every team of
       the run reads the tile;
    5. the Snippet-3 neighbour-flag reduction picks the child — the
       very same phase as the per-query kernel, so child indices (and
       therefore leaf indices) are bit-identical.

    Every ``sync`` is unconditional and the scan bound ``teams`` is a
    launch constant, so all threads execute identical barrier
    sequences regardless of data.  Correct for any query order —
    sortedness only increases run lengths (fewer global loads).
    """
    x, team = ctx.thread_idx
    q_idx = ctx.global_query_index
    flag_base = team * (fanout + 1)
    query = yield ("gld", queries, q_idx)
    yield ("shst", "flag", flag_base + x, 0)
    node = 0
    yield ("sync",)
    for i in range(depth):
        # phase 1: publish this team's frontier entry
        if x == 0:
            yield ("shst", "nodes", team, node)
        yield ("sync",)
        # phase 2: run representative = first team of a run
        left = yield ("shld", "nodes", max(team - 1, 0))
        is_rep = team == 0 or int(left) != node
        yield ("shst", "scan", team, team if is_rep else -1)
        yield ("sync",)
        # phase 3: inclusive max-scan -> owner = nearest rep at or left
        d = 1
        while d < teams:
            mine = yield ("shld", "scan", team)
            other = yield ("shld", "scan", max(team - d, 0))
            if team < d:
                other = -1
            yield ("sync",)
            yield ("shst", "scan", team, max(int(mine), int(other)))
            yield ("sync",)
            d *= 2
        owner = int((yield ("shld", "scan", team)))
        # phase 4: the owner loads the key line once for the whole run
        if team == owner:
            key = yield ("gld", iseg, level_offsets[i] + node * fanout + x)
            yield ("shst", "tile", team * fanout + x, key)
        yield ("sync",)
        self_key = yield ("shld", "tile", owner * fanout + x)
        # phase 5: Snippet-3 neighbour-flag child pick (per-query twin)
        yield ("shst", "flag", flag_base + x + 1, 0)
        self_flag = 0
        if query <= self_key:
            yield ("shst", "flag", flag_base + x + 1, 1)
            self_flag = 1
        yield ("sync",)
        prev = yield ("shld", "flag", flag_base + x)
        if self_flag == 1 and prev == 0:
            yield ("shst", "result", team, x)
        yield ("sync",)
        result = yield ("shld", "result", team)
        node = node * fanout + int(result)
    if x == 0:
        yield ("gst", results, q_idx, node)


def launch_frontier_search(
    device: GpuDevice,
    iseg: DeviceBuffer,
    level_offsets: Sequence[int],
    depth: int,
    fanout: int,
    queries: np.ndarray,
    level_sizes: Optional[Sequence[int]] = None,
):
    """Run the literal frontier kernel over all ``queries``.

    Returns ``(leaf_indices, stats)``.  The whole bucket runs as one
    cooperative block (block-wide barriers *are* the level
    synchronization; a hardware port would use cooperative groups or
    one grid launch per level), so no padding is needed.  Geometry is
    validated up front — a mismatched launch raises ``ValueError``
    before any simulated memory access.
    """
    validate_level_geometry(
        level_offsets, level_sizes, depth, fanout, iseg.array.size
    )
    n = len(queries)
    if n == 0:
        return np.zeros(0, dtype=np.int64), GpuKernelStats()
    qbuf = device.memory.upload(
        "_queries_frontier", np.asarray(queries)
    )
    rbuf = device.memory.upload(
        "_results_frontier", np.zeros(n, dtype=np.int64)
    )
    shared = {
        "nodes": ((n,), np.int64),
        "scan": ((n,), np.int64),
        "tile": ((n * fanout,), iseg.array.dtype),
        "flag": ((n * (fanout + 1),), np.int8),
        "result": ((n,), np.int64),
    }
    stats = device.launch(
        frontier_search_kernel,
        1,
        (fanout, n),
        iseg,
        list(level_offsets),
        depth,
        fanout,
        qbuf,
        rbuf,
        n,
        shared_decls=shared,
    )
    out = rbuf.array.copy()
    device.memory.free("_queries_frontier")
    device.memory.free("_results_frontier")
    return out, stats
