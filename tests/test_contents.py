"""Every tree reads its contents one way: ``stored_items()``.

``stored_items()`` / ``stored_keys()`` are the arrays in key order that
persistence, snapshots, shard splits and merges read; ``items()`` is
their Python-pair view.  The two must agree on every layout and after
the writes that reshape a layout (freed leaves, gaps, a merge rebuild,
an emptied tree).  ``key_sample`` draws from ``stored_keys()`` and must
keep drawing the keys it drew when each hybrid tree read its own
population.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import CssTreeAdapter
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.service import IndexService, ServiceConfig
from repro.workloads.generators import generate_dataset

BITS = [32, 64]


def _data(bits, n=6000, seed=41):
    return generate_dataset(n, key_bits=bits, seed=seed)


def _assert_parity(tree):
    keys, values = tree.stored_items()
    items = tree.items()
    assert isinstance(items, list)
    assert keys.dtype == values.dtype == tree.spec.dtype
    assert list(zip(keys.tolist(), values.tolist())) == items
    assert np.array_equal(tree.stored_keys(), keys)
    assert np.all(keys[1:] > keys[:-1])
    return keys, values


def _reference(keys, values, drop=()):
    order = np.argsort(keys)
    k, v = keys[order], values[order]
    keep = ~np.isin(k, np.asarray(drop, dtype=k.dtype))
    return k[keep], v[keep]


@pytest.mark.parametrize("bits", BITS)
def test_regular_after_deletes_that_free_leaves(bits):
    keys, values = _data(bits)
    tree = RegularCpuBPlusTree(keys, values, key_bits=bits, fill=0.7)
    leaves_before = tree.leaves.count - len(tree.leaves._free)
    drop = np.sort(keys)[1000:3000]
    for k in drop.tolist():
        tree.delete(k)
    assert tree.leaves.count - len(tree.leaves._free) < leaves_before
    got = _assert_parity(tree)
    ref = _reference(keys, values, drop)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("bits", BITS)
def test_gapped(bits):
    keys, values = _data(bits)
    tree = GappedCpuBPlusTree(keys, values, key_bits=bits, fill=0.6)
    fresh = np.sort(keys)[::7] + 1
    fresh = fresh[~np.isin(fresh, keys)]
    for k in fresh.tolist():
        tree.insert(k, 5)
    got = _assert_parity(tree)
    ref = _reference(np.concatenate([keys, fresh]),
                     np.concatenate([values, np.full(len(fresh), 5,
                                                     dtype=values.dtype)]))
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("bits", BITS)
def test_implicit_after_merge_rebuild(bits, m1):
    keys, values = _data(bits)
    tree = ImplicitHBPlusTree(keys, values, machine=m1, key_bits=bits)
    sk = np.sort(keys)
    drop = sk[::5]
    up = sk[1::5]
    tree.merge_rebuild(up, up, drop)
    got = _assert_parity(tree.cpu_tree)
    ref_k, ref_v = _reference(keys, values, drop)
    ref_v = ref_v.copy()
    ref_v[np.isin(ref_k, up)] = ref_k[np.isin(ref_k, up)]
    assert np.array_equal(got[0], ref_k)
    assert np.array_equal(got[1], ref_v)


@pytest.mark.parametrize("cls", [CssTree, FastTree])
@pytest.mark.parametrize("bits", BITS)
def test_sorted_array_trees_hand_out_copies(cls, bits):
    keys, values = _data(bits)
    tree = cls(keys, values, key_bits=bits)
    got = _assert_parity(tree)
    ref = _reference(keys, values)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    got[0][:] = 0
    got[1][:] = 0
    assert np.array_equal(tree.stored_items()[0], ref[0])
    assert np.array_equal(tree.stored_items()[1], ref[1])


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("make", [
    lambda k, v, m, b: HBPlusTree(k, v, machine=m, key_bits=b, fill=0.7),
    lambda k, v, m, b: HBPlusTree(k, v, machine=m, key_bits=b,
                                  gapped=True, fill=0.7),
    lambda k, v, m, b: ImplicitHBPlusTree(k, v, machine=m, key_bits=b),
], ids=["hb-regular", "hb-gapped", "hb-implicit"])
def test_hybrid_trees_read_their_cpu_tree(bits, make, m1):
    keys, values = _data(bits)
    tree = make(keys, values, m1, bits)
    keys_out, values_out = tree.stored_items()
    assert list(zip(keys_out.tolist(), values_out.tolist())) \
        == tree.cpu_tree.items()
    assert np.array_equal(tree.stored_keys(), keys_out)
    assert all(np.array_equal(a, b) for a, b in
               zip((keys_out, values_out), _reference(keys, values)))


@pytest.mark.parametrize("bits", BITS)
def test_emptied_regular_tree(bits):
    keys, values = _data(bits, n=600)
    tree = RegularCpuBPlusTree(keys, values, key_bits=bits)
    for k in keys.tolist():
        tree.delete(k)
    assert len(tree) == 0
    got = _assert_parity(tree)
    assert len(got[0]) == len(got[1]) == 0
    assert tree.items() == []


def _population(tree):
    """The population each hybrid tree's ``key_sample`` drew from when
    it read its own layout: the regular tree's stored keys, the implicit
    leaves' non-sentinel slots and the CSS tree's sorted array."""
    cpu = tree.cpu_tree
    if isinstance(cpu, ImplicitCpuBPlusTree):
        flat = cpu.leaf_keys.reshape(-1)
        return flat[flat != tree.spec.max_value]
    if isinstance(cpu, CssTree):
        return cpu.sorted_keys
    return cpu.stored_keys()


@pytest.mark.parametrize("kind", ["hb-regular", "hb-gapped", "hb-implicit",
                                  "css-adapter"])
def test_key_sample_draws_the_same_keys(kind, m1):
    keys, values = _data(64, n=5000, seed=9)
    if kind == "css-adapter":
        tree = CssTreeAdapter(CssTree(keys, values), m1)
    elif kind == "hb-implicit":
        tree = ImplicitHBPlusTree(keys, values, machine=m1)
    else:
        tree = HBPlusTree(keys, values, machine=m1, fill=0.7,
                          gapped=kind == "hb-gapped")
    stored = _population(tree)
    for seed, size, kwargs in ((23, 512, {}), (11, 2048, {"replace": True}),
                               (67, 9000, {}), (5, 9000, {"fill": True})):
        expected = np.random.default_rng(seed)
        if kwargs.get("fill"):
            want = expected.choice(stored, size=size,
                                   replace=len(stored) < size)
        else:
            want = expected.choice(stored, size=min(size, len(stored)),
                                   replace=kwargs.get("replace", False))
        assert np.array_equal(tree.key_sample(seed, size, **kwargs), want)


def test_shard_contents_never_builds_python_pairs(m1, monkeypatch):
    """An ``hb-implicit`` shard's contents are one mask over the leaf
    arrays, never the per-pair ``items()`` list."""
    keys, values = _data(64, n=20000, seed=3)
    svc = IndexService.build(keys, values, ServiceConfig(
        n_shards=2, kind="hb-implicit", machine=m1))
    calls = []
    real = ImplicitCpuBPlusTree.items

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(ImplicitCpuBPlusTree, "items", counting)
    got = [shard.contents() for shard in svc.shards]
    all_k, all_v = svc.contents()
    assert calls == []
    ref_k, ref_v = _reference(keys, values)
    assert np.array_equal(np.concatenate([k for k, _v in got]), ref_k)
    assert np.array_equal(all_k, ref_k) and np.array_equal(all_v, ref_v)
