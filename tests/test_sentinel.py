"""The padding sentinel is never a stored key, so looking it up is a miss.

Leaf padding holds the sentinel key (the key dtype's maximum).  A probe
that only compares the slot key with the query "finds" the sentinel in
a padding slot and answers that slot's value; every serving path must
answer not-found instead (``None`` from ``lookup``, the sentinel from
``lookup_batch``).  A 17-key tree has a padded last leaf in every kind.
"""

import numpy as np
import pytest

from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.resilience import ResilientHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.lifecycle import bulk_load
from repro.platform.configs import machine_m1
from repro.service import IndexService, ServiceConfig
from repro.workloads.generators import generate_dataset

BITS = [64, 32]
CPU_TREES = [RegularCpuBPlusTree, ImplicitCpuBPlusTree, GappedCpuBPlusTree]


def _data(n, bits, seed=1):
    return generate_dataset(n, seed=seed, key_bits=bits)


def _probe(tree, keys):
    """The sentinel between two stored keys, plus a repeat at the end."""
    sentinel = tree.spec.max_value
    return np.asarray([keys[0], sentinel, keys[-1], sentinel],
                      dtype=tree.spec.dtype)


def _expected(tree, keys, values):
    sentinel = tree.spec.max_value
    return np.asarray([values[0], sentinel, values[-1], sentinel],
                      dtype=tree.spec.dtype)


def _hybrids(keys, values, bits):
    m = machine_m1()
    return [
        HBPlusTree(keys, values, machine=m, key_bits=bits),
        HBPlusTree(keys, values, machine=m, key_bits=bits, gapped=True),
        ImplicitHBPlusTree(keys, values, machine=m, key_bits=bits),
        bulk_load("hb-regular", keys, values, key_bits=bits, machine=m),
        bulk_load("hb-implicit", keys, values, key_bits=bits, machine=m),
    ]


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("cls", CPU_TREES, ids=lambda c: c.__name__)
def test_cpu_tree_scalar_and_batch(cls, bits):
    keys, values = _data(17, bits)
    tree = cls(keys, values, key_bits=bits)
    assert tree.lookup(tree.spec.max_value) is None
    assert tree.lookup(int(keys[0])) == int(values[0])
    assert np.array_equal(tree.lookup_batch(_probe(tree, keys)),
                          _expected(tree, keys, values))


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("cls", [RegularCpuBPlusTree, GappedCpuBPlusTree],
                         ids=lambda c: c.__name__)
def test_cpu_tree_built_by_inserts(cls, bits):
    keys, values = _data(17, bits)
    tree = cls(key_bits=bits)
    for k, v in zip(keys.tolist(), values.tolist()):
        tree.insert(k, v)
    assert tree.lookup(tree.spec.max_value) is None
    assert np.array_equal(tree.lookup_batch(_probe(tree, keys)),
                          _expected(tree, keys, values))


@pytest.mark.parametrize("bits", BITS)
def test_hybrid_scalar_batch_and_engine(bits):
    keys, values = _data(17, bits)
    for tree in _hybrids(keys, values, bits):
        want = _expected(tree, keys, values)
        assert tree.lookup(tree.spec.max_value) is None
        assert np.array_equal(tree.lookup_batch(_probe(tree, keys)), want)
        engine = BatchingEngine(tree)
        assert np.array_equal(engine.lookup_batch(_probe(tree, keys)), want)
        # the sentinel alone: the sorted bucket's last (and only) query
        lone = engine.lookup_batch(_probe(tree, keys)[1:2])
        assert lone.tolist() == [tree.spec.max_value]


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("gapped", [False, True])
def test_resilient(bits, gapped):
    keys, values = _data(17, bits)
    tree = HBPlusTree(keys, values, machine=machine_m1(), key_bits=bits,
                      gapped=gapped)
    resilient = ResilientHBPlusTree(tree)
    assert np.array_equal(resilient.engine.lookup_batch(_probe(tree, keys)),
                          _expected(tree, keys, values))
    sentinel = np.asarray([tree.spec.max_value], dtype=tree.spec.dtype)
    assert resilient.engine.lookup_batch(sentinel)[0] == tree.spec.max_value


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("kind", ["hb-regular", "hb-implicit"])
def test_service(kind, bits):
    keys, values = _data(4096, bits, seed=2)
    svc = IndexService.build(keys, values, ServiceConfig(
        n_shards=3, kind=kind, key_bits=bits, machine=machine_m1()))
    sentinel = (1 << bits) - 1
    q = np.asarray([keys[0], sentinel, keys[-1]], dtype=keys.dtype)
    want = np.asarray([values[0], sentinel, values[-1]], dtype=keys.dtype)
    assert np.array_equal(svc.lookup_batch(q), want)
