"""Per-level reference kernels: the test oracles of the GPU-stage twins.

These are the straightforward forms of the vectorised kernels in
:mod:`repro.gpusim.kernels`: every level gathers each query's whole
node and compares every key, and each level's line stream is counted
on its own with a per-window sort.  The production kernels (lower-bound
node search, one accounting pass per bucket) must return identical
codes and identical transaction counts.
"""

from __future__ import annotations

import numpy as np


def warp_distinct_ref(values: np.ndarray, group: int) -> int:
    """Distinct values per consecutive ``group`` window, window by
    window with an unconditional sort."""
    v = np.asarray(values)
    total = 0
    for start in range(0, len(v), group):
        total += len(np.unique(v[start: start + group]))
    return total


def regular_search_ref(iseg, stride, kpl, fanout, height, root, last_base,
                       queries, teams_per_warp=4, frontier_block=None):
    """Full-block compare per level, one count per line stream."""
    q = np.asarray(queries)
    dedup = int(frontier_block) if frontier_block else teams_per_warp
    nodes_view = iseg.reshape(-1, stride)
    keys_view = nodes_view[:, kpl: kpl + fanout]
    refs_view = nodes_view[:, kpl + fanout:]
    node = np.full(len(q), root, dtype=np.int64)
    transactions = 0
    for level in range(height - 1, -1, -1):
        offset = last_base if level == 0 else 0
        keys = keys_view[node + offset]
        slot = np.sum(keys < q[:, None], axis=1).astype(np.int64)
        slot = np.minimum(slot, fanout - 1)
        transactions += warp_distinct_ref(node, dedup)
        transactions += warp_distinct_ref(node * kpl + slot // kpl, dedup)
        if level == 0:
            return node * fanout + slot, transactions
        transactions += warp_distinct_ref(node * fanout + slot, dedup)
        node = refs_view[node + offset, slot].astype(np.int64)
    raise AssertionError("height >= 1 always returns")


def implicit_search_from_ref(iseg, level_offsets, level_sizes, depth,
                             fanout, queries, start_levels, start_nodes,
                             group):
    """Per-query (or, with ``group`` = block, frontier) descent resumed
    from per-query (level, node); a level counts only the queries that
    walk it, windowed over those queries in order."""
    q = np.asarray(queries)
    node = np.asarray(start_nodes, dtype=np.int64).copy()
    start = np.asarray(start_levels, dtype=np.int64)
    transactions = 0
    for level in range(depth):
        active = start <= level
        if not np.any(active):
            continue
        view = iseg[
            level_offsets[level]: level_offsets[level] + level_sizes[level]
        ].reshape(-1, fanout)
        keys = view[node[active]]
        transactions += warp_distinct_ref(node[active], group)
        k = np.sum(keys < q[active, None], axis=1).astype(np.int64)
        node[active] = node[active] * fanout + k
    return node, transactions


def regular_finish_ref(tree, queries, codes):
    """Regular-tree leaf finish: compare every pair of the line."""
    q = np.asarray(queries, dtype=tree.spec.dtype)
    cpu = tree.cpu_tree
    fanout = cpu.fanout
    node = (np.asarray(codes) // fanout).astype(np.int64)
    line = (np.asarray(codes) % fanout).astype(np.int64)
    p = tree.spec.leaf_pairs_per_line
    base = line * p
    rows = cpu.leaves.keys[node[:, None], base[:, None] + np.arange(p)]
    pos = np.minimum(np.sum(rows < q[:, None], axis=1), p - 1)
    found = rows[np.arange(len(q)), pos] == q
    out = np.full(len(q), tree.spec.max_value, dtype=tree.spec.dtype)
    out[found] = cpu.leaves.values[node[found], base[found] + pos[found]]
    return out
