"""Per-op inserts and deletes: the test oracle of the batch write.

These are the classic one-key B+-tree writes that
:meth:`repro.cpu.btree_regular.RegularCpuBPlusTree.apply_batch` replaced:
descend with a path, shift the key into its big leaf, split a full leaf
in half and insert the new sibling into its parent (splitting full
parents and growing the root on the way up), raise routing keys along
the path; on delete, shift the key out and unlink a leaf that empties,
removing emptied parents and collapsing a root left with one child.
The gapped layout writes in place into its gaps and splits only when a
leaf has none.

``apply_batch`` must leave every pool array, count and free list, and
the same set of moved version stamps, that :func:`apply_ops` leaves.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cpu.btree_regular import _NIL, RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree

APPLY_BATCH = RegularCpuBPlusTree.apply_batch


#: the pool arrays a batch write must leave as the per-op loop does
POOLS = {
    "upper": ("keys", "index_line", "refs", "size", "parent", "next", "prev"),
    "last": ("keys", "index_line", "refs", "size", "parent", "next", "prev"),
    "leaves": ("keys", "values", "size", "next", "prev"),
}


def versions(tree) -> dict:
    """Per pool, a copy of the live nodes' version stamps."""
    return {name: getattr(tree, name).version[: getattr(tree, name).count]
            .copy() for name in POOLS}


def moved(tree, before: dict) -> dict:
    """Per pool, the nodes whose version stamp moved since ``before``."""
    out = {}
    for name, old in before.items():
        pool = getattr(tree, name)
        cur = pool.version[: pool.count]
        old = np.r_[old, np.zeros(len(cur) - len(old), dtype=old.dtype)]
        out[name] = np.flatnonzero(cur != old).tolist()
    return out


def pool_diff(a, b) -> list:
    """Where two trees' roots, pool arrays, counts and free lists
    differ (empty when they agree)."""
    diffs = [name for name in ("root", "height", "_first_leaf", "num_tuples")
             if getattr(a, name) != getattr(b, name)]
    for name, fields in POOLS.items():
        pa, pb = getattr(a, name), getattr(b, name)
        if (pa.count, pa._free) != (pb.count, pb._free):
            diffs.append(f"{name} count/free list")
        diffs += [f"{name}.{f}" for f in fields
                  if not np.array_equal(getattr(pa, f), getattr(pb, f))]
    return diffs


class WriteShadow:
    """``RegularCpuBPlusTree.apply_batch`` that also runs
    :func:`apply_ops` on a copy of the tree's pools taken before the
    write, and raises on the first difference in the returned presence,
    roots, pools, free lists or moved version stamps (compact trees; a
    gapped tree's batch re-spreads leaves the per-op loop writes in
    place, so only its stored pairs must agree).

    ``install()`` replaces the method on the class, ``uninstall()``
    puts the product's back.  ``calls`` counts shadowed writes and
    ``ops`` their ops.
    """

    def __init__(self):
        self.calls = 0
        self.ops = 0

    def apply_batch(self, tree, keys, values, is_delete=None, nodes=None):
        ref = copy.copy(tree)
        for name in (*POOLS, "gap_stats"):
            if hasattr(tree, name):
                setattr(ref, name, copy.deepcopy(getattr(tree, name)))
        stamps = versions(tree)
        before = APPLY_BATCH(tree, keys, values, is_delete, nodes)
        dele = np.zeros(len(before), dtype=bool) if is_delete is None \
            else np.asarray(is_delete, dtype=bool)
        present = apply_ops(ref, keys, values, dele)
        if isinstance(tree, GappedCpuBPlusTree):
            diffs = [] if list(tree.items()) == list(ref.items()) \
                else ["stored pairs"]
        else:
            diffs = pool_diff(tree, ref)
            if moved(tree, stamps) != moved(ref, stamps):
                diffs.append("moved version stamps")
        if before.tolist() != present:
            diffs.append("returned presence")
        self.calls += 1
        self.ops += len(before)
        if diffs:
            raise AssertionError(
                f"apply_batch #{self.calls} ({len(before)} ops) differs "
                f"from the per-op loop in {', '.join(diffs)}")
        return before

    def install(self) -> None:
        shadow = self

        def apply_batch(tree, keys, values, is_delete=None, nodes=None):
            return shadow.apply_batch(tree, keys, values, is_delete, nodes)

        apply_batch.__doc__ = APPLY_BATCH.__doc__
        RegularCpuBPlusTree.apply_batch = apply_batch

    def uninstall(self) -> None:
        RegularCpuBPlusTree.apply_batch = APPLY_BATCH


def apply_ops(tree, keys, values, is_delete) -> list:
    """One :func:`insert` / :func:`delete` per op, in op order; returns,
    per op, whether its key was stored just before it."""
    return [delete(tree, k) if d else not insert(tree, k, v)
            for k, v, d in zip(np.asarray(keys).tolist(),
                               np.asarray(values).tolist(),
                               np.asarray(is_delete).tolist())]


def insert(tree, key: int, value: int) -> bool:
    """Insert or overwrite; returns True if the key was new."""
    if isinstance(tree, GappedCpuBPlusTree):
        return _gapped_insert(tree, key, value)
    key = int(key)
    if not 0 <= key < tree.spec.max_value:
        raise ValueError("key outside the valid (non-sentinel) domain")
    node, path = _descend(tree, key)
    lv = tree.leaves
    leaf_keys = lv.keys[node]
    size = int(lv.size[node])
    typed_key = tree.spec.dtype(key)
    pos = int(np.searchsorted(leaf_keys[:size], typed_key))
    if pos < size and int(leaf_keys[pos]) == key:
        lv.values[node, pos] = value
        lv.version[node] += 1
        return False
    if size >= lv.capacity_pairs:
        _split_leaf(tree, node, path)
        node, path = _descend(tree, key)
        leaf_keys = lv.keys[node]
        size = int(lv.size[node])
        pos = int(np.searchsorted(leaf_keys[:size], typed_key))
    leaf_keys[pos + 1: size + 1] = leaf_keys[pos:size]
    lv.values[node, pos + 1: size + 1] = lv.values[node, pos:size]
    leaf_keys[pos] = key
    lv.values[node, pos] = value
    lv.size[node] = size + 1
    tree._refresh_last_level_keys(node)
    _bubble_up_max(tree, path, key)
    tree.num_tuples += 1
    return True


def delete(tree, key: int) -> bool:
    """Remove a key; returns True if it was present."""
    if isinstance(tree, GappedCpuBPlusTree):
        return _gapped_delete(tree, key)
    key = int(key)
    node, path = _descend(tree, key)
    lv = tree.leaves
    size = int(lv.size[node])
    pos = int(np.searchsorted(lv.keys[node, :size], tree.spec.dtype(key)))
    if pos >= size or int(lv.keys[node, pos]) != key:
        return False
    lv.keys[node, pos: size - 1] = lv.keys[node, pos + 1: size]
    lv.values[node, pos: size - 1] = lv.values[node, pos + 1: size]
    lv.keys[node, size - 1] = tree.spec.max_value
    lv.values[node, size - 1] = 0
    lv.size[node] = size - 1
    tree._refresh_last_level_keys(node)
    tree.num_tuples -= 1
    if size - 1 == 0 and tree.height > 1:
        _remove_empty_leaf(tree, node, path)
    return True


# --- descent and routing keys ---------------------------------------------

def _descend(tree, key: int):
    """The last-level node for ``key`` and the path
    ``[(level, node, slot), ...]`` from the root down."""
    node = tree.root
    path = []
    for level in range(tree.height - 1, 0, -1):
        slot = tree._search_inner(tree.upper, node, key)
        path.append((level, node, slot))
        node = int(tree.upper.refs[node, slot])
    path.append((0, node, tree._search_inner(tree.last, node, key)))
    return node, path


def _set_parent_key(tree, level: int, node: int, slot: int, key: int) -> None:
    pool = tree._pool(level)
    pool.keys[node, slot] = key
    pool.refresh_index(node)


def _bubble_up_max(tree, path: list, key: int) -> None:
    """Raise routing keys along the descend path to cover ``key``."""
    for level, node, slot in reversed(path[:-1]):
        if int(tree.upper.keys[node, slot]) < key:
            _set_parent_key(tree, level, node, slot, key)


def _node_max(tree, level: int, node: int) -> int:
    """Actual maximum key stored beneath a node."""
    if level == 0:
        size = int(tree.leaves.size[node])
        return int(tree.leaves.keys[node, size - 1]) if size else 0
    size = int(tree.upper.size[node])
    return _node_max(tree, level - 1, int(tree.upper.refs[node, size - 1]))


# --- splits ---------------------------------------------------------------

def _link_leaf_after(tree, node: int, new_node: int) -> None:
    lv = tree.leaves
    nxt = int(lv.next[node])
    lv.next[node] = new_node
    lv.prev[new_node] = node
    lv.next[new_node] = nxt
    if nxt != _NIL:
        lv.prev[nxt] = new_node
    tree.last.next[node] = new_node
    tree.last.prev[new_node] = node
    tree.last.next[new_node] = nxt


def _split_leaf(tree, node: int, path: list) -> None:
    """Split a full big leaf (and its last-level inner) in half."""
    new_node = tree._new_last_level_node()
    lv = tree.leaves
    cap = lv.capacity_pairs
    half = cap // 2
    lv.keys[new_node, : cap - half] = lv.keys[node, half:]
    lv.values[new_node, : cap - half] = lv.values[node, half:]
    lv.keys[node, half:] = tree.spec.max_value
    lv.values[node, half:] = 0
    lv.size[new_node] = cap - half
    lv.size[node] = half
    _link_leaf_after(tree, node, new_node)
    tree._refresh_last_level_keys(node)
    tree._refresh_last_level_keys(new_node)
    split_key = int(lv.keys[node, half - 1])
    _insert_into_parent(tree, 0, node, split_key, new_node, path)


def _insert_into_parent(tree, level: int, left: int, split_key: int,
                        right: int, path: list) -> None:
    """Link ``right`` as the sibling after ``left`` at ``level+1``."""
    up = tree.upper
    parent_entry = None
    for entry in path:
        if entry[0] == level + 1 and int(up.refs[entry[1], entry[2]]) == left:
            parent_entry = entry
            break
    if parent_entry is None and level + 1 > tree.height - 1:
        # splitting the root: grow the tree by one level
        new_root = up.allocate()
        up.size[new_root] = 2
        up.refs[new_root, 0] = left
        up.refs[new_root, 1] = right
        up.keys[new_root, 0] = split_key
        up.keys[new_root, 1] = _node_max(tree, level, right)
        up.refresh_index(new_root)
        tree._pool(level).parent[left] = new_root
        tree._pool(level).parent[right] = new_root
        tree.root = new_root
        tree.height += 1
        return
    if parent_entry is None:
        parent = int(tree._pool(level).parent[left])
        psize = int(up.size[parent])
        slots = [s for s in range(psize) if int(up.refs[parent, s]) == left]
        if not slots:
            raise AssertionError("parent fragment does not reference child")
        parent_entry = (level + 1, parent, slots[0])
    _plevel, parent, slot = parent_entry
    psize = int(up.size[parent])
    if psize >= tree.fanout:
        _split_upper(tree, level + 1, parent, path)
        # parent changed; retry through the fragment pointers
        _insert_into_parent(tree, level, left, split_key, right, [])
        return
    up.keys[parent, slot + 2: psize + 1] = up.keys[parent, slot + 1: psize]
    up.refs[parent, slot + 2: psize + 1] = up.refs[parent, slot + 1: psize]
    # the pre-split routing key bounded the whole node, which is now
    # exactly the upper bound of the right half
    right_max = int(up.keys[parent, slot])
    up.keys[parent, slot] = split_key
    up.keys[parent, slot + 1] = right_max
    up.refs[parent, slot + 1] = right
    up.size[parent] = psize + 1
    up.refresh_index(parent)
    tree._pool(level).parent[right] = parent


def _split_upper(tree, level: int, node: int, path: list) -> None:
    """Split a full upper inner node in half."""
    up = tree.upper
    new_node = up.allocate()
    half = tree.fanout // 2
    rest = tree.fanout - half
    up.keys[new_node, :rest] = up.keys[node, half:]
    up.refs[new_node, :rest] = up.refs[node, half:]
    up.keys[node, half:] = tree.spec.max_value
    up.refs[node, half:] = _NIL
    up.size[new_node] = rest
    up.size[node] = half
    up.refresh_index(node)
    up.refresh_index(new_node)
    child_pool = tree._pool(level - 1)
    for s in range(rest):
        child_pool.parent[int(up.refs[new_node, s])] = new_node
    nxt = int(up.next[node])
    up.next[node] = new_node
    up.prev[new_node] = node
    up.next[new_node] = nxt
    if nxt != _NIL:
        up.prev[nxt] = new_node
    split_key = int(up.keys[node, half - 1])
    if node == tree.root:
        new_root = up.allocate()
        up.size[new_root] = 2
        up.refs[new_root, 0] = node
        up.refs[new_root, 1] = new_node
        up.keys[new_root, 0] = split_key
        up.keys[new_root, 1] = int(up.keys[new_node, rest - 1])
        up.refresh_index(new_root)
        up.parent[node] = new_root
        up.parent[new_node] = new_root
        tree.root = new_root
        tree.height += 1
    else:
        _insert_into_parent(tree, level, node, split_key, new_node, path)


# --- empty leaves ---------------------------------------------------------

def _remove_empty_leaf(tree, node: int, path: list) -> None:
    """Unlink an empty big leaf (lazy deletion's only collapse)."""
    lv, last = tree.leaves, tree.last
    prev, nxt = int(lv.prev[node]), int(lv.next[node])
    if prev == _NIL and nxt == _NIL:
        # the only leaf: keep it as the (empty) tree skeleton
        return
    if prev != _NIL:
        lv.next[prev] = nxt
        last.next[prev] = nxt
    else:
        tree._first_leaf = nxt
    if nxt != _NIL:
        lv.prev[nxt] = prev
        last.prev[nxt] = prev
    _remove_child(tree, 1, int(last.parent[node]), node)
    lv.free(node)
    last.free(node)


def _remove_child(tree, level: int, parent: int, child: int) -> None:
    if parent == _NIL:
        return
    up = tree.upper
    psize = int(up.size[parent])
    slots = [s for s in range(psize) if int(up.refs[parent, s]) == child]
    if not slots:
        return
    slot = slots[0]
    up.keys[parent, slot: psize - 1] = up.keys[parent, slot + 1: psize]
    up.refs[parent, slot: psize - 1] = up.refs[parent, slot + 1: psize]
    up.keys[parent, psize - 1] = tree.spec.max_value
    up.refs[parent, psize - 1] = _NIL
    up.size[parent] = psize - 1
    up.refresh_index(parent)
    if psize - 1 == 0:
        _remove_child(tree, level + 1, int(up.parent[parent]), parent)
        up.free(parent)
    elif parent == tree.root and psize - 1 == 1 and tree.height > 1:
        _collapse_root(tree)


def _collapse_root(tree) -> None:
    """Shrink the tree while the root has a single child."""
    up = tree.upper
    while tree.height > 1 and int(up.size[tree.root]) == 1:
        child = int(up.refs[tree.root, 0])
        up.free(tree.root)
        tree.root = child
        tree.height -= 1
        pool = tree.last if tree.height == 1 else up
        pool.parent[child] = _NIL


# --- the gapped layout ----------------------------------------------------

def _spread(tree, node: int, keys, values) -> None:
    """Re-spread a gapped leaf and refresh its last-level node."""
    tree._write_leaf_pairs(node, keys, values)
    tree._refresh_last_level_keys(node)


def _leaf_upsert(tree, node: int, key: int, value: int):
    """Place ``key`` into a gapped leaf; returns ``(placed, was_new)``.

    ``placed`` is False only on gap exhaustion (leaf completely full).
    """
    lv = tree.leaves
    stats = tree.gap_stats
    cap = lv.capacity_pairs
    size = int(lv.size[node])
    keys = lv.keys[node]
    tk = tree.spec.dtype(key)
    pos = int(np.searchsorted(keys[:size], tk))
    if pos < size and int(keys[pos]) == key:
        right = int(np.searchsorted(keys[:size], tk, side="right"))
        lv.values[node, pos:right] = value
        lv.version[node] += 1
        return True, False
    gaps_row = lv.gap[node]
    g = -1
    if pos < size:
        after = np.flatnonzero(gaps_row[pos:size])
        if len(after):
            g = pos + int(after[0])
        elif size < cap:
            g = size
    elif size < cap:
        g = pos
    if g >= 0:
        if g > pos:
            keys[pos + 1: g + 1] = keys[pos:g]
            lv.values[node, pos + 1: g + 1] = lv.values[node, pos:g]
            stats.shift_writes += 1
            stats.shifted_pairs += g - pos
        else:
            stats.gap_writes += 1
        keys[pos] = tk
        lv.values[node, pos] = value
        gaps_row[g] = False
        lv.size[node] = max(size, g + 1)
        lv.live[node] += 1
        return True, True
    before = np.flatnonzero(gaps_row[:pos])
    if len(before):
        g0 = int(before[-1])
        keys[g0:pos - 1] = keys[g0 + 1: pos]
        lv.values[node, g0:pos - 1] = lv.values[node, g0 + 1: pos]
        keys[pos - 1] = tk
        lv.values[node, pos - 1] = value
        gaps_row[g0] = False
        lv.live[node] += 1
        stats.shift_writes += 1
        stats.shifted_pairs += pos - 1 - g0
        return True, True
    return False, False


def _gapped_insert(tree, key: int, value: int) -> bool:
    key = int(key)
    if not 0 <= key < tree.spec.max_value:
        raise ValueError("key outside the valid (non-sentinel) domain")
    node, path = _descend(tree, key)
    placed, was_new = _leaf_upsert(tree, node, key, value)
    if not placed:
        # gap exhaustion: split (re-spreads both halves), retry
        _gapped_split_leaf(tree, node, path)
        node, path = _descend(tree, key)
        placed, was_new = _leaf_upsert(tree, node, key, value)
        if not placed:
            raise AssertionError("split left no gap for the insert")
    if was_new:
        tree._refresh_last_level_keys(node)
        _bubble_up_max(tree, path, key)
        tree.num_tuples += 1
    return was_new


def _gapped_split_leaf(tree, node: int, path: list) -> None:
    """Split a gap-exhausted leaf, re-spreading both halves."""
    tree.gap_stats.splits += 1
    keys, values = tree._leaf_pairs(node)
    half = len(keys) // 2
    new_node = tree._new_last_level_node()
    _spread(tree, node, keys[:half], values[:half])
    _spread(tree, new_node, keys[half:], values[half:])
    _link_leaf_after(tree, node, new_node)
    _insert_into_parent(tree, 0, node, int(keys[half - 1]), new_node, path)


def _gapped_delete(tree, key: int) -> bool:
    key = int(key)
    node, path = _descend(tree, key)
    lv = tree.leaves
    size = int(lv.size[node])
    tk = tree.spec.dtype(key)
    keys = lv.keys[node]
    pos = int(np.searchsorted(keys[:size], tk))
    if pos >= size or int(keys[pos]) != key:
        return False
    right = int(np.searchsorted(keys[:size], tk, side="right"))
    if right < size:
        # interior run: backfill with the next slot's pair
        keys[pos:right] = keys[right]
        lv.values[node, pos:right] = lv.values[node, right]
        lv.gap[node, pos:right] = True
    else:
        # tail run: truncate the extent back to the last real pair
        keys[pos:size] = tree.spec.max_value
        lv.values[node, pos:size] = 0
        lv.gap[node, pos:size] = False
        lv.size[node] = pos
    lv.live[node] -= 1
    tree.gap_stats.gap_deletes += 1
    tree.num_tuples -= 1
    tree._refresh_last_level_keys(node)
    if int(lv.live[node]) == 0 and tree.height > 1:
        lv.keys[node] = tree.spec.max_value
        lv.values[node] = 0
        lv.gap[node] = False
        lv.size[node] = 0
        _remove_empty_leaf(tree, node, path)
    return True
