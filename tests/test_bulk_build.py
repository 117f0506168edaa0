"""Whole-array bulk builds leave exactly what node-at-a-time builds do.

Every build is held to its loop oracle in ``tests/build_oracles.py``:
every pool array, capacity, count, stamp and free list, the root,
height, first leaf and segment placement of the regular and gapped
trees; the leaf arrays, levels and segments of the implicit tree and
the CSS directory.  A built tree must also go on to behave the same
under batch writes, splits and deletes, and the builds must not call
anything once per node.
"""

import sys

import numpy as np
import pytest

from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree, _InnerPool, _LeafPool
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.keys import key_spec
from repro.memsim.mainmem import MemorySystem
from tests.build_oracles import (
    loop_bulk_build,
    loop_css_build,
    loop_gapped_bulk_build,
    loop_implicit_build,
)

LAYOUTS = {
    "compact": (RegularCpuBPlusTree, loop_bulk_build),
    "gapped": (GappedCpuBPlusTree, loop_gapped_bulk_build),
}


def _pairs(n, bits, seed, shuffled):
    spec = key_spec(bits)
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, spec.max_value, n + n // 8 + 8,
                                  dtype=spec.dtype))[:n]
    assert len(keys) == n
    values = rng.integers(0, spec.max_value, n, dtype=spec.dtype)
    if shuffled:
        order = rng.permutation(n)
        keys, values = keys[order], values[order]
    return keys, values


def _assert_same_value(a, b, where):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert np.array_equal(a, b), where
    elif isinstance(a, (list, tuple)) and any(
            isinstance(x, np.ndarray) for x in a):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_value(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def _assert_same_fields(a, b, names, where):
    for name in names:
        _assert_same_value(getattr(a, name), getattr(b, name),
                           f"{where}.{name}")


def _assert_same_mem(a, b):
    assert (a.mem is None) == (b.mem is None)
    if a.mem is not None:
        _assert_same_fields(a.mem.allocator, b.mem.allocator,
                            ["_segments", "_next_free"], "allocator")


def assert_same_regular(a, b):
    """Every pool field, count, stamp and free list, and the tree's
    root, height, first leaf, tuple count and segments."""
    for pool in ("upper", "last", "leaves"):
        pa, pb = getattr(a, pool), getattr(b, pool)
        assert sorted(vars(pa)) == sorted(vars(pb)), pool
        _assert_same_fields(pa, pb, sorted(vars(pa)), pool)
    _assert_same_fields(
        a, b, ["root", "height", "_first_leaf", "num_tuples", "i_segment",
               "l_segment"], "tree")
    assert type(a.root) is type(b.root) is int
    if isinstance(a, GappedCpuBPlusTree):
        assert a.gap_stats == b.gap_stats
    _assert_same_mem(a, b)


def _regular_pair(layout, bits, fill, keys, values):
    """The array build and the loop oracle over the same input, each in
    its own fresh memory system."""
    cls, oracle = LAYOUTS[layout]
    built = cls((), (), key_bits=bits, mem=MemorySystem())
    built.bulk_build(keys, values, fill=fill)
    looped = cls((), (), key_bits=bits, mem=MemorySystem())
    oracle(looped, keys, values, fill)
    return built, looped


def _leaf_counts(bits):
    """1 key, one full leaf, 16 and 17 leaves (the pool doubles at the
    17th node) and a 3-level tree with a half-full last leaf."""
    fanout = key_spec(bits).regular_fanout
    return [("one_key", None), ("one_leaf", 1), ("16_leaves", 16),
            ("17_leaves", 17), ("3_levels", fanout + 1)]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("fill", [0.05, 0.7, 1.0])
@pytest.mark.parametrize("shape", range(5))
def test_regular_build_matches_the_loop(layout, bits, fill, shape):
    name, leaves = _leaf_counts(bits)[shape]
    spec = key_spec(bits)
    cap = max(1, int(spec.regular_fanout * spec.leaf_pairs_per_line * fill))
    if leaves is None:
        n = 1
    elif name == "3_levels":
        n = (leaves - 1) * cap + max(1, cap // 2)
    elif name == "17_leaves":
        n = (leaves - 1) * cap + 1
    else:
        n = leaves * cap
    keys, values = _pairs(n, bits, seed=shape + 7 * bits,
                          shuffled=shape % 2 == 1)
    built, looped = _regular_pair(layout, bits, fill, keys, values)
    assert_same_regular(built, looped)
    if name == "3_levels":
        assert built.height == 3
    # capacities start at 16 and double until they cover the count
    for pool in (built.upper, built.last, built.leaves):
        assert pool.keys.shape[0] == max(16, 1 << (pool.count - 1).bit_length())
    built.check_invariants()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("fill", [0.7, 1.0])
def test_writes_on_a_built_tree_match_a_looped_one(layout, fill):
    """apply_batch, leaf and upper splits, and deletes that empty
    leaves leave the two trees equal at every step."""
    keys, values = _pairs(40_000, 64, seed=3, shuffled=False)
    built, looped = _regular_pair(layout, 64, fill, keys[::2], values[::2])
    rng = np.random.default_rng(5)
    steps = []
    # one batch: fresh keys, overwrites and deletes
    ops = rng.choice(len(keys), 3000, replace=False)
    dele = rng.random(3000) < 0.3
    steps.append(lambda t: t.apply_batch(keys[ops], values[ops], dele))
    # a dense run of fresh keys splits leaves and last-level nodes
    run = keys[1:16_001:2]
    steps.append(lambda t: t.apply_batch(run, run))
    for k in keys[16_001:17_001:2].tolist():
        steps.append(lambda t, k=k: t.insert(k, 1))
    # delete whole leaves' worth of keys
    for k in keys[::2][:1500].tolist():
        steps.append(lambda t, k=k: t.delete(k))
    for step in steps:
        assert np.array_equal(step(built), step(looped))
    assert_same_regular(built, looped)
    built.check_invariants()
    assert built.height >= 2


# ----------------------------------------------------------------------
# implicit tree and CSS directory

IMPLICIT_SIZES = [1, 3, 4, 5, 37, 1000, 4097, 30_001]


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("hybrid_fanout", [True, False])
@pytest.mark.parametrize("n", IMPLICIT_SIZES)
def test_implicit_build_matches_the_loop(bits, hybrid_fanout, n):
    spec = key_spec(bits)
    fanout = (spec.implicit_hybrid_fanout if hybrid_fanout
              else spec.implicit_cpu_fanout)
    keys, values = _pairs(n, bits, seed=n, shuffled=n % 2 == 1)
    seed_keys = np.zeros(1, dtype=spec.dtype)
    built = ImplicitCpuBPlusTree(seed_keys, seed_keys, key_bits=bits,
                                 fanout=fanout, mem=MemorySystem())
    built._build(keys, values)
    looped = ImplicitCpuBPlusTree(seed_keys, seed_keys, key_bits=bits,
                                  fanout=fanout, mem=MemorySystem())
    loop_implicit_build(looped, keys, values)
    _assert_same_fields(
        built, looped, ["leaf_keys", "leaf_values", "inner_levels",
                        "num_tuples", "i_segment", "l_segment"], "implicit")
    _assert_same_mem(built, looped)


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("n", IMPLICIT_SIZES)
def test_css_build_matches_the_loop(bits, n):
    spec = key_spec(bits)
    keys, values = _pairs(n, bits, seed=n + 1, shuffled=n % 2 == 0)
    seed_keys = np.zeros(1, dtype=spec.dtype)
    built = CssTree(seed_keys, seed_keys, key_bits=bits, mem=MemorySystem())
    built._build(keys, values)
    looped = CssTree(seed_keys, seed_keys, key_bits=bits, mem=MemorySystem())
    loop_css_build(looped, keys, values)
    _assert_same_fields(
        built, looped, ["sorted_keys", "sorted_values", "directory",
                        "num_runs", "num_tuples", "i_segment", "l_segment"],
        "css")
    _assert_same_mem(built, looped)


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("cls", [CssTree, FastTree, ImplicitCpuBPlusTree,
                                 RegularCpuBPlusTree])
def test_builds_keep_no_view_of_the_callers_arrays(cls, shuffled):
    keys, values = _pairs(3000, 64, seed=2, shuffled=shuffled)
    tree = cls(keys, values)
    probe = keys[::7].copy()
    before = tree.lookup_batch(probe)
    keys[:] = 0
    values[:] = 0
    assert np.array_equal(tree.lookup_batch(probe), before)


def test_builds_still_reject_duplicates():
    keys = np.array([5, 1, 5, 9], dtype=np.uint64)
    for build in (lambda: RegularCpuBPlusTree(keys, keys),
                  lambda: GappedCpuBPlusTree(keys, keys, fill=0.7),
                  lambda: ImplicitCpuBPlusTree(keys, keys),
                  lambda: CssTree(keys, keys)):
        with pytest.raises(ValueError, match="duplicate"):
            build()


# ----------------------------------------------------------------------
# the builds stay whole-array: no call per node

PER_NODE = [(_InnerPool, "allocate"), (_InnerPool, "refresh_index"),
            (_LeafPool, "allocate"),
            (RegularCpuBPlusTree, "_refresh_last_level_keys")]


def _per_node_calls(monkeypatch, layout, n):
    cls, _ = LAYOUTS[layout]
    keys, values = _pairs(n, 64, seed=1, shuffled=True)
    tree = cls((), ())
    calls = {}
    for owner, name in PER_NODE:
        original = getattr(owner, name)

        def counted(*args, _name=f"{owner.__name__}.{name}",
                    _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    tree.bulk_build(keys, values, fill=0.7)
    monkeypatch.undo()
    return calls, tree.leaves.count


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_regular_build_calls_nothing_per_node(monkeypatch, layout):
    small, small_leaves = _per_node_calls(monkeypatch, layout, 1 << 12)
    large, large_leaves = _per_node_calls(monkeypatch, layout, 1 << 16)
    assert large_leaves > 10 * small_leaves
    assert small == large


def _max_calls(n):
    keys, values = _pairs(n, 64, seed=4, shuffled=False)
    tree = ImplicitCpuBPlusTree(keys[:1], values[:1])
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and getattr(arg, "__name__", "") == "max":
            count += 1

    sys.setprofile(profile)
    try:
        tree._build(keys, values)
    finally:
        sys.setprofile(None)
    return count, tree.num_inner_nodes


def test_implicit_build_takes_no_per_node_max():
    small, small_nodes = _max_calls(1 << 12)
    large, large_nodes = _max_calls(1 << 16)
    assert large_nodes > 10 * small_nodes
    assert small == large
