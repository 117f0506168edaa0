"""The batch write primitive ``apply_batch`` against the scalar loop.

``RegularCpuBPlusTree.apply_batch`` applies one op stream (upserts and
deletes, in array order) and must leave the state the per-op
``insert``/``delete`` loop of ``tests/write_oracles.py`` leaves: the
same stored map on every tree kind, bit-identical pool arrays on the
compact layout, the same set of nodes whose version stamp moved, and a
mirror that the dirty-set sync brings back to a fresh pack.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.gpu_update import GpuAssistedUpdater
from repro.core.hbtree import HBPlusTree
from repro.core.update import AsyncBatchUpdater
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset
from tests.write_oracles import POOLS, apply_ops
from tests.write_oracles import moved as _moved
from tests.write_oracles import versions as _versions

KEY_LIMIT = 1 << 40


def scalar_apply(tree, keys, values, is_delete):
    """The oracle: one ``insert``/``delete`` per op, in op order."""
    apply_ops(tree, keys, values, is_delete)


def _dataset(n, seed=0):
    rng = np.random.default_rng([seed, n])
    keys = np.unique(rng.integers(0, KEY_LIMIT, 2 * n, dtype=np.uint64))
    keys = rng.permutation(keys)[:n]
    return keys, keys ^ np.uint64(0x77)


# --- regressions: the updaters' former private write copies -------------

@pytest.fixture()
def full_leaf_key():
    """A packed tree and a fresh key whose target leaf is full."""
    keys, values = generate_dataset(4096, seed=5)
    tree = HBPlusTree(keys, values, machine=machine_m1(), fill=1.0)
    cpu = tree.cpu_tree
    stored = cpu.stored_keys()
    k = int(stored[1000]) + 1
    assert k not in set(stored.tolist())
    node = cpu.descend_batch(np.asarray([k], dtype=np.uint64))[0][0]
    assert cpu.leaves.size[node] == cpu.leaves.capacity_pairs
    return tree, k


class TestRegressions:
    def test_async_upsert_then_delete_of_a_fresh_key(self, full_leaf_key):
        # the split-deferred insert used to run after the kept delete,
        # leaving k -> 7 stored; SyncUpdater deletes it
        tree, k = full_leaf_key
        AsyncBatchUpdater(tree).apply([k], [7], [k])
        assert tree.cpu_tree.lookup(k, instrument=False) is None
        tree.cpu_tree.check_invariants()

    def test_async_fresh_key_upserted_twice_keeps_the_last(self,
                                                          full_leaf_key):
        # only the key's first upsert counted as new, so the second was
        # kept and applied before the deferred first one: 1 won
        tree, k = full_leaf_key
        AsyncBatchUpdater(tree).apply([k, k], [1, 2])
        assert tree.cpu_tree.lookup(k, instrument=False) == 2
        assert tree.lookup_batch(np.asarray([k], dtype=np.uint64))[0] == 2

    def test_gpu_assisted_writes_keep_a_gapped_tree_valid(self):
        # the GPU updater wrote the compact layout into gapped leaves:
        # invariants broke and items()/range_query lost pairs
        keys, values = generate_dataset(4096, seed=5)
        tree = HBPlusTree(keys, values, machine=machine_m1(), fill=0.5,
                          gapped=True)
        rng = np.random.default_rng(9)
        up = rng.integers(0, (1 << 64) - 1, 300, dtype=np.uint64)
        uv = rng.integers(0, 1 << 62, 300, dtype=np.uint64)
        GpuAssistedUpdater(tree).apply(up, uv)
        ref = dict(zip(keys.tolist(), values.tolist()))
        ref.update(zip(up.tolist(), uv.tolist()))
        expected = sorted(ref.items())
        cpu = tree.cpu_tree
        cpu.check_invariants()
        assert list(cpu.items()) == expected
        assert cpu.range_query(0, (1 << 64) - 2) == expected
        np.testing.assert_array_equal(tree.lookup_batch(up), uv)


# --- the contract ---------------------------------------------------------

class TestContract:
    @pytest.fixture()
    def tree(self):
        keys, values = _dataset(4096)
        return HBPlusTree(keys, values, machine=machine_m1(), fill=0.7)

    def test_one_leaf_overwrites_rewrite_without_inner_writes(self, tree):
        cpu = tree.cpu_tree
        leaf = int(cpu.leaf_chain()[3])
        ks = cpu.leaves.keys[leaf, :3].copy()
        last_version = int(cpu.last.version[leaf])
        assert cpu.apply_batch(ks, ks + np.uint64(1)).all()
        assert int(cpu.last.version[leaf]) == last_version
        np.testing.assert_array_equal(cpu.lookup_batch(ks),
                                      ks + np.uint64(1))

    def test_returns_each_ops_prior_presence(self, tree):
        cpu = tree.cpu_tree
        chain = cpu.leaf_chain()
        ks = np.asarray([cpu.leaves.keys[chain[i], 0] for i in (1, 5, 9)],
                        dtype=np.uint64)
        ks = np.r_[ks, ks[1], ks[1] + np.uint64(1)]
        before = cpu.apply_batch(ks, ks, is_delete=[False, True, False,
                                                    True, False])
        assert before.tolist() == [True, True, True, False, False]
        assert cpu.lookup(int(ks[1]), instrument=False) is None

    def test_delete_then_upsert_of_one_key(self, tree):
        cpu = tree.cpu_tree
        k = int(cpu.stored_keys()[100])
        cpu.apply_batch([k, k], [0, 5], is_delete=[True, False])
        assert cpu.lookup(k, instrument=False) == 5
        cpu.check_invariants()

    def test_presence_is_by_key_not_value(self, tree):
        # a stored value may equal the not-found sentinel of lookups
        cpu = tree.cpu_tree
        leaf = int(cpu.leaf_chain()[2])
        k1, k2 = (int(k) for k in cpu.leaves.keys[leaf, :2])
        cpu.insert(k1, cpu.spec.max_value)
        n = len(cpu)
        cpu.apply_batch([k1, k2], [0, 0], is_delete=[True, True])
        assert len(cpu) == n - 2
        cpu.check_invariants()

    def test_empty_stream_and_sentinel_key(self, tree):
        cpu = tree.cpu_tree
        assert len(cpu.apply_batch([], [])) == 0
        with pytest.raises(ValueError):
            cpu.apply_batch([cpu.spec.max_value], [1])

    def test_deleting_the_sentinel_key_is_a_no_op(self, tree):
        # the sentinel pads every leaf, so a probe of the leaf line
        # used to find it "stored" and the delete lowered the count
        cpu = tree.cpu_tree
        k = int(cpu.stored_keys()[-5])  # in the sentinel's leaf
        n = len(cpu)
        before = cpu.apply_batch([cpu.spec.max_value, k], [0, 0],
                                 is_delete=[True, True])
        assert before.tolist() == [False, True]
        assert len(cpu) == n - 1
        cpu.check_invariants()

    def test_routing_keys_rise_for_a_fresh_key_a_later_op_deletes(self):
        # a one-leaf group: upsert a key past the leaf's routing key,
        # then delete it; the per-op insert raised the routing key
        keys, values = _dataset(4096)
        batch = RegularCpuBPlusTree(keys, values, fill=0.7)
        ref = RegularCpuBPlusTree(keys, values, fill=0.7)
        leaf = int(batch.leaf_chain()[-1])
        parent = int(batch.last.parent[leaf])
        k = int(batch.upper.keys[parent, batch.upper.size[parent] - 1]) + 1
        assert batch.descend_batch(np.asarray([k], np.uint64))[0][0] == leaf
        ops = ([k, k], [3, 0], [False, True])
        assert batch.apply_batch(*ops).tolist() == [False, True]
        scalar_apply(ref, *ops)
        _assert_pools_equal(batch, ref)

    def test_ops_after_a_leaf_empties_run_in_order(self):
        # once a leaf empties, its key range routes to its neighbour: a
        # fresh key there must split the neighbour before, not after,
        # the neighbour's own ops
        keys, values = _dataset(4096)
        batch = RegularCpuBPlusTree(keys, values, fill=1.0)
        ref = RegularCpuBPlusTree(keys, values, fill=1.0)
        chain = batch.leaf_chain()
        a, b = int(chain[5]), int(chain[6])
        gone = batch.leaves.keys[a, : batch.leaves.size[a]].copy()
        x = int(gone[10]) + 1
        b_keys = batch.leaves.keys[b, : batch.leaves.size[b]]
        b_fresh = int(b_keys[20]) + 1
        assert x not in gone and b_fresh not in b_keys
        # b's delete and upsert fall in different halves of its split
        ks = np.r_[gone, [x, b_keys[200], b_fresh]].astype(np.uint64)
        dels = np.r_[np.ones(len(gone), bool), [False, True, False]]
        before = batch.apply_batch(ks, ks, is_delete=dels)
        assert before.tolist() == [True] * len(gone) + [False, True, False]
        scalar_apply(ref, ks, ks, dels)
        _assert_pools_equal(batch, ref)
        batch.check_invariants()


# --- property: the final state equals the scalar loop's -------------------

#: (gapped, fill) of each tree kind
KINDS = {
    "regular-0.7": (False, 0.7),
    "regular-1.0": (False, 1.0),
    "gapped-0.7": (True, 0.7),
}
#: one leaf at fill 1.0 (a split grows the root), a few leaves (emptying
#: one collapses the root), and 63 full leaves under one root (splits
#: fill the root, then split it)
SIZES = (200, 600, 63 * 256)

batches = st.lists(
    st.tuples(
        st.integers(0, 20),               # fresh upserts
        st.integers(0, 8),                # stored upserts (repeats allowed)
        st.integers(0, 8),                # stored deletes (repeats allowed)
        st.integers(0, 6),                # later ops on an earlier op's key
        st.booleans(),                    # delete every key of one leaf
        st.booleans(),                    # fresh keys in one key region
        st.integers(0, 2**16),            # seed
    ),
    min_size=1, max_size=4,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _ops(cpu, spec):
    """One shuffled op stream: fresh keys (into full leaves at fill
    1.0), stored upserts and deletes, repeated keys (upsert twice,
    upsert then delete, delete then upsert) and optionally every key of
    one leaf deleted."""
    n_fresh, n_over, n_del, n_rep, empty_leaf, clustered, seed = spec
    rng = np.random.default_rng(seed)
    stored = cpu.stored_keys()
    if clustered:
        lo = int(stored[rng.integers(0, len(stored))])
        fresh = lo + rng.integers(1, 1 << 16, n_fresh, dtype=np.uint64)
    else:
        fresh = rng.integers(0, KEY_LIMIT, n_fresh, dtype=np.uint64)
    fresh = np.setdiff1d(fresh, stored)
    over = rng.choice(stored, n_over)
    dels = [rng.choice(stored, n_del)]
    if empty_leaf:
        chain = cpu.leaf_chain()
        leaf = int(chain[rng.integers(0, len(chain))])
        # a gapped leaf repeats keys in its gaps
        dels.append(np.unique(cpu.leaves.keys[leaf, : cpu.leaves.size[leaf]]))
    dels = np.concatenate(dels)
    keys = np.concatenate([fresh, over, dels]).astype(np.uint64)
    is_del = np.arange(len(keys)) >= len(fresh) + len(over)
    order = rng.permutation(len(keys))
    keys, is_del = list(keys[order]), list(is_del[order])
    for _ in range(n_rep if keys else 0):
        j = int(rng.integers(0, len(keys)))
        at = int(rng.integers(j + 1, len(keys) + 1))
        keys.insert(at, keys[j])
        is_del.insert(at, bool(rng.integers(0, 2)))
    keys = np.asarray(keys, dtype=np.uint64)
    values = rng.integers(0, KEY_LIMIT, len(keys), dtype=np.uint64)
    return keys, values, np.asarray(is_del, dtype=bool)


def _assert_pools_equal(a, b):
    assert (a.root, a.height, a._first_leaf, a.num_tuples) == (
        b.root, b.height, b._first_leaf, b.num_tuples)
    for name, fields in POOLS.items():
        pa, pb = getattr(a, name), getattr(b, name)
        assert (pa.count, pa._free) == (pb.count, pb._free), name
        for f in fields:
            np.testing.assert_array_equal(getattr(pa, f), getattr(pb, f),
                                          err_msg=f"{name}.{f}")


@given(kind=st.sampled_from(sorted(KINDS)), n=st.sampled_from(SIZES),
       specs=batches)
@PROPERTY
def test_apply_batch_equals_the_scalar_loop(kind, n, specs):
    gapped, fill = KINDS[kind]
    keys, values = _dataset(n)
    tree = HBPlusTree(keys, values, machine=machine_m1(), fill=fill,
                      gapped=gapped)
    cpu = tree.cpu_tree
    ref = type(cpu)(keys, values, fill=fill)
    for spec in specs:
        ks, vs, ds = _ops(cpu, spec)
        mark = tree.mirror_mark()
        v_cpu, v_ref = _versions(cpu), _versions(ref)
        cpu.apply_batch(ks, vs, is_delete=ds)
        scalar_apply(ref, ks, vs, ds)
        cpu.check_invariants()
        assert list(cpu.items()) == list(ref.items())
        if not gapped:
            _assert_pools_equal(cpu, ref)
            assert _moved(cpu, v_cpu) == _moved(ref, v_ref)
        tree.sync_nodes(mark)
        np.testing.assert_array_equal(tree.iseg_buffer.array,
                                      tree.pack_i_segment())
