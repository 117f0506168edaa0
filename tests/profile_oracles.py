"""Per-access reference profilers: the test oracles of the walks.

These are the straightforward forms of
:func:`repro.core.hybrid.profile_regular` and
:func:`~repro.core.hybrid.profile_implicit`: the same warm-up half and
measured half, the same level-by-level order across the batch, but one
``touch_line`` call per access.  The production profilers settle each
level in one ``touch_lines`` call and must leave the same profile and
the same memory-system state.
"""

from __future__ import annotations

import numpy as np

from repro.platform.costmodel import CpuQueryProfile


def _halves(q: np.ndarray, warm: bool):
    if not warm or len(q) < 2:
        return q[:0], q
    half = len(q) // 2
    return q[:half], q[half:]


def scalar_profile_implicit(tree, queries, warm: bool = True
                            ) -> CpuQueryProfile:
    """Implicit-tree lookups, one ``touch_line`` per access."""
    q = np.asarray(queries, dtype=tree.spec.dtype)
    warm_q, measure_q = _halves(q, warm)
    for q in (warm_q, measure_q):
        if len(q) == 0:
            continue
        if q is measure_q:
            tree.mem.reset_counters()
        node = np.zeros(len(q), dtype=np.int64)
        for level, level_keys in enumerate(tree.inner_levels):
            offset = tree._level_line_offset(level)
            for n in node.tolist():
                tree.mem.touch_line(tree.i_segment, offset + int(n))
            keys = level_keys[node]
            k = np.sum(keys < q[:, None], axis=1).astype(np.int64)
            next_size = (
                tree.inner_levels[level + 1].shape[0]
                if level + 1 < len(tree.inner_levels)
                else tree.num_leaves
            )
            node = np.minimum(node * tree.fanout + k, next_size - 1)
        for n in node.tolist():
            tree.mem.touch_line(tree.l_segment, int(n))
    counters = tree.mem.counters
    counters.queries = len(measure_q)
    return CpuQueryProfile.from_counters(
        counters, node_searches_per_query=tree.height + 1
    )


def scalar_profile_regular(tree, queries, warm: bool = True
                           ) -> CpuQueryProfile:
    """Regular-tree lookups: three ``touch_line`` calls per query and
    inner level, then one per query for its big-leaf line."""
    tree._ensure_segments()
    q = np.asarray(queries, dtype=tree.spec.dtype)
    kpl = tree.spec.keys_per_line
    warm_q, measure_q = _halves(q, warm)
    for q in (warm_q, measure_q):
        if len(q) == 0:
            continue
        if q is measure_q:
            tree.mem.reset_counters()
        node = np.full(len(q), tree.root, dtype=np.int64)
        for level in range(tree.height - 1, -1, -1):
            pool = tree.last if level == 0 else tree.upper
            keys = pool.keys[node]
            slot = np.sum(keys < q[:, None], axis=1)
            slot = np.minimum(slot, np.maximum(pool.size[node] - 1, 0))
            for n, g in zip(node.tolist(), (slot // kpl).tolist()):
                tree._touch_inner(level, int(n), int(g))
            if level == 0:
                for n, ln in zip(node.tolist(), slot.tolist()):
                    tree._touch_leaf_line(int(n), int(ln))
            else:
                node = pool.refs[node, slot].astype(np.int64)
    counters = tree.mem.counters
    counters.queries = len(measure_q)
    return CpuQueryProfile.from_counters(
        counters, node_searches_per_query=2.0 * tree.height + 1
    )
