"""Node-at-a-time bulk builds: the test oracles of the array builds.

These are the straightforward forms of
:meth:`repro.cpu.btree_regular.RegularCpuBPlusTree.bulk_build`,
:meth:`repro.cpu.gapped.GappedCpuBPlusTree.bulk_build`,
``ImplicitCpuBPlusTree._build`` and ``CssTree._build``: one
``allocate`` / ``refresh_index`` per node, one re-spread per gapped
leaf, one maximum per inner node.  The production builds make each
level in one whole-array pass and must leave every pool array, stamp,
count and segment exactly as these do.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.cpu.btree_regular import _NIL, _InnerPool


def _sorted_input(spec, keys, values):
    keys = np.asarray(keys, dtype=spec.dtype)
    values = np.asarray(values, dtype=spec.dtype)
    if keys.ndim != 1 or keys.shape != values.shape:
        raise ValueError("keys and values must be 1-D arrays of equal length")
    if len(keys) == 0:
        raise ValueError("cannot build from zero tuples")
    if int(keys.max()) >= spec.max_value:
        raise ValueError("keys must be strictly below the sentinel value")
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    if len(keys) > 1 and np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate keys are not supported")
    return keys, values


def loop_bulk_build(tree, keys, values, fill: float = 1.0) -> None:
    """A regular tree's bulk build, one node at a time."""
    keys, values = _sorted_input(tree.spec, keys, values)
    if not 0.05 <= fill <= 1.0:
        raise ValueError("fill factor must be in [0.05, 1.0]")
    tree.upper = _InnerPool(tree.spec)
    tree.last = _InnerPool(tree.spec)
    tree.leaves = tree._make_leaf_pool()
    tree.num_tuples = len(keys)

    cap = max(1, int(tree.leaves.capacity_pairs * fill))
    n_leaves = (len(keys) + cap - 1) // cap
    prev = _NIL
    level_nodes: List[int] = []
    level_maxes: List[int] = []
    for i in range(n_leaves):
        node = tree._new_last_level_node()
        lo, hi = i * cap, min((i + 1) * cap, len(keys))
        tree.leaves.keys[node, : hi - lo] = keys[lo:hi]
        tree.leaves.values[node, : hi - lo] = values[lo:hi]
        tree.leaves.size[node] = hi - lo
        tree.leaves.prev[node] = prev
        if prev != _NIL:
            tree.leaves.next[prev] = node
            tree.last.next[prev] = node
            tree.last.prev[node] = prev
        prev = node
        tree._refresh_last_level_keys(node)
        level_nodes.append(node)
        level_maxes.append(int(keys[hi - 1]))
    tree._first_leaf = level_nodes[0]

    level = 0
    pool_below = tree.last
    while len(level_nodes) > 1:
        next_nodes: List[int] = []
        next_maxes: List[int] = []
        prev = _NIL
        for i in range(0, len(level_nodes), tree.fanout):
            children = level_nodes[i: i + tree.fanout]
            maxes = level_maxes[i: i + tree.fanout]
            node = tree.upper.allocate()
            tree.upper.size[node] = len(children)
            for s, (c, m) in enumerate(zip(children, maxes)):
                tree.upper.refs[node, s] = c
                tree.upper.keys[node, s] = m
                pool_below.parent[c] = node
            tree.upper.refresh_index(node)
            tree.upper.prev[node] = prev
            if prev != _NIL:
                tree.upper.next[prev] = node
            prev = node
            next_nodes.append(node)
            next_maxes.append(maxes[-1])
        level_nodes, level_maxes = next_nodes, next_maxes
        pool_below = tree.upper
        level += 1
    tree.root = level_nodes[0]
    tree.height = level + 1
    tree.i_segment = None
    tree.l_segment = None
    tree._ensure_segments()


def loop_write_leaf_spread(tree, node: int, keys, values) -> None:
    """One gapped leaf re-spread: ``m`` pairs at slots ``i*cap//m``,
    each gap backfilled from the next real slot."""
    lv = tree.leaves
    cap = lv.capacity_pairs
    m = len(keys)
    pos = (np.arange(m, dtype=np.int64) * cap) // m
    extent = int(pos[-1]) + 1
    row_k = np.full(extent, tree.spec.max_value, dtype=tree.spec.dtype)
    row_v = np.zeros(extent, dtype=tree.spec.dtype)
    row_k[pos] = keys
    row_v[pos] = values
    nxt = np.full(extent, extent, dtype=np.int64)
    nxt[pos] = pos
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    gaps = np.ones(extent, dtype=bool)
    gaps[pos] = False
    gidx = np.flatnonzero(gaps)
    row_k[gidx] = row_k[nxt[gidx]]
    row_v[gidx] = row_v[nxt[gidx]]
    lv.keys[node, :extent] = row_k
    lv.values[node, :extent] = row_v
    lv.keys[node, extent:] = tree.spec.max_value
    lv.values[node, extent:] = 0
    lv.gap[node, :extent] = gaps
    lv.gap[node, extent:] = False
    lv.size[node] = extent
    lv.live[node] = m
    tree._refresh_last_level_keys(node)


def loop_gapped_bulk_build(tree, keys, values, fill: float = 1.0) -> None:
    """A gapped tree's bulk build: the regular loop, then one re-spread
    per leaf in chain order."""
    loop_bulk_build(tree, keys, values, fill)
    for node in tree.leaf_chain().tolist():
        size = int(tree.leaves.size[node])
        loop_write_leaf_spread(
            tree, node, tree.leaves.keys[node, :size].copy(),
            tree.leaves.values[node, :size].copy(),
        )


def loop_implicit_build(tree, keys, values) -> None:
    """An implicit tree's build, one slot column and one node maximum
    at a time."""
    spec = tree.spec
    keys, values = _sorted_input(spec, keys, values)
    tree.num_tuples = len(keys)
    cap = spec.leaf_pairs_per_line
    n_leaves = math.ceil(len(keys) / cap)
    sentinel = spec.max_value
    leaf_keys = np.full((n_leaves, cap), sentinel, dtype=spec.dtype)
    leaf_vals = np.zeros((n_leaves, cap), dtype=spec.dtype)
    leaf_keys.reshape(-1)[: len(keys)] = keys
    leaf_vals.reshape(-1)[: len(values)] = values
    tree.leaf_keys = leaf_keys
    tree.leaf_values = leaf_vals

    child_max = keys[
        np.minimum(np.arange(1, n_leaves + 1) * cap - 1, len(keys) - 1)
    ]
    tree.inner_levels = []
    n_children = n_leaves
    while n_children > 1:
        n_nodes = math.ceil(n_children / tree.fanout)
        level = np.full((n_nodes, spec.keys_per_line), sentinel,
                        dtype=spec.dtype)
        kpn = min(spec.keys_per_line, tree.fanout)
        for j in range(kpn):
            child = np.arange(n_nodes) * tree.fanout + j
            valid = child < n_children
            level[valid, j] = child_max[child[valid]]
        if tree.fanout == spec.keys_per_line:
            level[:, tree.fanout - 1] = sentinel
            last_children = n_children - (n_nodes - 1) * tree.fanout
            level[n_nodes - 1, last_children - 1] = sentinel
        tree.inner_levels.append(level)
        node_max = np.empty(n_nodes, dtype=spec.dtype)
        for i in range(n_nodes):
            lo = i * tree.fanout
            hi = min(lo + tree.fanout, n_children)
            node_max[i] = child_max[lo:hi].max()
        child_max = node_max
        n_children = n_nodes
    tree.inner_levels.reverse()
    tree._allocate_segments()


def loop_css_build(tree, keys, values) -> None:
    """A CSS-tree's directory build, one node maximum at a time."""
    spec = tree.spec
    tree.sorted_keys, tree.sorted_values = _sorted_input(spec, keys, values)
    tree.num_tuples = len(tree.sorted_keys)
    sentinel = spec.max_value
    run = tree.fanout
    n_runs = math.ceil(tree.num_tuples / run)
    child_max = tree.sorted_keys[
        np.minimum(np.arange(1, n_runs + 1) * run - 1, tree.num_tuples - 1)
    ]
    tree.directory = []
    n_children = n_runs
    while n_children > 1:
        n_nodes = math.ceil(n_children / tree.fanout)
        level = np.full((n_nodes, tree.fanout), sentinel, dtype=spec.dtype)
        level.reshape(-1)[:n_children] = child_max
        level[n_nodes - 1,
              (n_children - 1) - (n_nodes - 1) * tree.fanout] = sentinel
        node_max = np.array(
            [child_max[min((i + 1) * tree.fanout, n_children) - 1]
             for i in range(n_nodes)],
            dtype=spec.dtype,
        )
        tree.directory.append(level)
        child_max = node_max
        n_children = n_nodes
    tree.directory.reverse()
    tree.num_runs = n_runs
    tree._allocate_segments()
