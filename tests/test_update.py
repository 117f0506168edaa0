"""Batch update execution (section 5.6, Figs 13-14)."""

import numpy as np
import pytest

from repro.bench.wallclock import PerNodeSyncUpdater
from repro.core.hbtree import HBPlusTree
from repro.core.update import (
    ASYNC_GROUP_SIZE,
    AsyncBatchUpdater,
    SyncUpdater,
    UpdateStats,
)
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_insert_batch
from tests.kernel_oracles import literal_codes


@pytest.fixture(scope="module")
def base_data():
    return generate_dataset(4096, seed=31)


@pytest.fixture()
def tree(base_data, m1):
    keys, values = base_data
    return HBPlusTree(keys, values, machine=m1, fill=0.7)


@pytest.fixture(scope="module")
def batch(base_data):
    keys, _values = base_data
    return make_insert_batch(keys, 1024, 64, seed=41)


class TestAsyncUpdater:
    def test_functional_inserts(self, tree, base_data, batch):
        keys, values = base_data
        upd_keys, upd_vals = batch
        stats = AsyncBatchUpdater(tree).apply(upd_keys, upd_vals)
        tree.cpu_tree.check_invariants()
        assert stats.applied + stats.deferred == len(upd_keys)
        assert np.array_equal(tree.lookup_batch(upd_keys), upd_vals)
        # old contents survive
        assert np.array_equal(tree.lookup_batch(keys), values)

    def test_mirror_consistent_after_update(self, tree, batch):
        upd_keys, upd_vals = batch
        AsyncBatchUpdater(tree).apply(upd_keys, upd_vals)
        literal = literal_codes(tree, upd_keys[:64])
        vector = tree.gpu_search_bucket(upd_keys[:64]).codes
        assert np.array_equal(literal, vector)

    def test_deletes(self, tree, base_data):
        keys, _values = base_data
        victims = keys[:200]
        stats = AsyncBatchUpdater(tree).apply([], [], deletes=victims)
        tree.cpu_tree.check_invariants()
        assert stats.applied + stats.deferred == 200
        out = tree.lookup_batch(victims)
        assert np.all(out == tree.spec.max_value)

    def test_most_updates_avoid_splits(self, tree, batch):
        """Paper: >99% of updates resolve without node split/merge
        thanks to the big leaves (tree built at fill=0.7)."""
        upd_keys, upd_vals = batch
        stats = AsyncBatchUpdater(tree).apply(upd_keys, upd_vals)
        assert stats.deferred_fraction < 0.01

    def test_multithreaded_faster_than_single(self, base_data, batch, m1):
        keys, values = base_data
        upd_keys, upd_vals = batch

        t1 = HBPlusTree(keys, values, machine=m1, fill=0.7)
        s1 = AsyncBatchUpdater(t1, threads=1).apply(
            upd_keys, upd_vals, transfer=False
        )
        t2 = HBPlusTree(keys, values, machine=m1, fill=0.7)
        s16 = AsyncBatchUpdater(t2).apply(upd_keys, upd_vals, transfer=False)
        ratio = s16.throughput_qps(False) / s1.throughput_qps(False)
        # paper Fig 13a: ~3x
        assert 2.0 <= ratio <= 4.0

    def test_transfer_time_included_when_asked(self, base_data, batch, m1):
        keys, values = base_data
        upd_keys, upd_vals = batch
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        stats = AsyncBatchUpdater(t).apply(upd_keys, upd_vals, transfer=True)
        assert stats.transfer_ns > 0
        assert stats.total_ns > stats.modify_ns

    def test_lock_accounting(self, tree, batch):
        upd_keys, upd_vals = batch
        stats = AsyncBatchUpdater(tree).apply(upd_keys, upd_vals)
        assert stats.lock_acquisitions == stats.applied
        assert stats.lock_conflicts >= 0

    def test_upsert_existing_key(self, tree, base_data):
        keys, _values = base_data
        stats = AsyncBatchUpdater(tree).apply(
            keys[:50], np.arange(50, dtype=np.uint64)
        )
        assert stats.applied == 50
        out = tree.lookup_batch(keys[:50])
        assert np.array_equal(out, np.arange(50, dtype=np.uint64))

    def test_group_size_is_16k(self):
        assert ASYNC_GROUP_SIZE == 16 * 1024


class TestSyncUpdater:
    def test_functional_inserts(self, tree, base_data, batch):
        keys, values = base_data
        upd_keys, upd_vals = batch
        stats = SyncUpdater(tree).apply(upd_keys, upd_vals)
        tree.cpu_tree.check_invariants()
        assert stats.applied == len(upd_keys)
        assert np.array_equal(tree.lookup_batch(upd_keys), upd_vals)
        assert np.array_equal(tree.lookup_batch(keys), values)

    def test_mirror_consistent(self, tree, batch):
        upd_keys, upd_vals = batch
        SyncUpdater(tree).apply(upd_keys, upd_vals)
        literal = literal_codes(tree, upd_keys[:64])
        vector = tree.gpu_search_bucket(upd_keys[:64]).codes
        assert np.array_equal(literal, vector)

    def test_nodes_synced_counted(self, tree, batch):
        upd_keys, upd_vals = batch
        stats = SyncUpdater(tree).apply(upd_keys, upd_vals)
        assert stats.synced_nodes > 0
        assert stats.synced_nodes <= len(upd_keys)

    def test_deletes(self, tree, base_data):
        keys, _values = base_data
        stats = SyncUpdater(tree).apply([], [], deletes=keys[:100])
        assert stats.applied == 100
        out = tree.lookup_batch(keys[:100])
        assert np.all(out == tree.spec.max_value)

    def test_batched_sync_fewer_pcie_transfers(self, base_data, m1, batch):
        """Ranged dirty-node sync must beat one transfer per node."""
        keys, values = base_data
        upd_keys, upd_vals = batch

        t_batched = HBPlusTree(keys, values, machine=m1, fill=0.7)
        t_batched.link.stats.reset()
        stats_b = SyncUpdater(t_batched).apply(
            upd_keys, upd_vals
        )
        batched_transfers = t_batched.link.stats.transfers

        t_pernode = HBPlusTree(keys, values, machine=m1, fill=0.7)
        t_pernode.link.stats.reset()
        stats_p = PerNodeSyncUpdater(t_pernode).apply(
            upd_keys, upd_vals
        )
        pernode_transfers = t_pernode.link.stats.transfers

        # the legacy path re-pushes a node once per op; the batched
        # path dedups to the distinct dirty nodes of the batch
        assert 0 < stats_b.synced_nodes <= stats_p.synced_nodes
        assert batched_transfers < pernode_transfers
        # both mirrors answer identically after the batch
        probe = upd_keys[:64]
        assert np.array_equal(
            t_batched.gpu_search_bucket(probe).codes,
            t_pernode.gpu_search_bucket(probe).codes,
        )
        assert np.array_equal(
            t_batched.lookup_batch(upd_keys), upd_vals
        )

    def test_legacy_pernode_path_still_works(self, tree, batch):
        upd_keys, upd_vals = batch
        stats = PerNodeSyncUpdater(tree).apply(upd_keys, upd_vals)
        tree.cpu_tree.check_invariants()
        assert stats.applied == len(upd_keys)
        assert np.array_equal(tree.lookup_batch(upd_keys), upd_vals)


class TestCrossover:
    """Fig 14's property: sync wins small batches, async wins large.

    Uses a larger base tree so the batch does not force leaf splits
    (which would measure deferral costs, not the transfer trade-off).
    """

    @pytest.fixture(scope="class")
    def big_base(self):
        return generate_dataset(32768, seed=34)

    def test_sync_cheaper_for_tiny_batches(self, big_base, m1):
        keys, values = big_base
        upd_keys, upd_vals = make_insert_batch(keys, 32, 64, seed=51)
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        sync_stats = SyncUpdater(t).apply(upd_keys, upd_vals)
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        async_stats = AsyncBatchUpdater(t).apply(
            upd_keys, upd_vals, transfer=True
        )
        assert sync_stats.total_ns < async_stats.total_ns

    def test_async_cheaper_for_big_batches(self, big_base, m1):
        keys, values = big_base
        upd_keys, upd_vals = make_insert_batch(keys, 4096, 64, seed=52)
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        sync_stats = SyncUpdater(t).apply(upd_keys, upd_vals)
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        async_stats = AsyncBatchUpdater(t).apply(
            upd_keys, upd_vals, transfer=True
        )
        assert async_stats.deferred_fraction < 0.01
        assert async_stats.total_ns < sync_stats.total_ns


class TestUpdateStats:
    def test_zero_time_throughput_is_zero_not_inf(self):
        """Empty/zero-cost batches report 0.0 qps — inf poisons any
        downstream mean and is not valid JSON."""
        stats = UpdateStats(applied=10)
        assert stats.total_ns == 0.0
        assert stats.throughput_qps() == 0.0
        assert stats.throughput_qps(include_transfer=False) == 0.0

    def test_nonzero_time_throughput(self):
        stats = UpdateStats(applied=1000, modify_ns=1e9)
        assert stats.throughput_qps() == pytest.approx(1000.0)


class TestCpuOnlyBaseline:
    def test_apply_cpu_only(self, base_data):
        keys, values = base_data
        tree = RegularCpuBPlusTree(keys, values, fill=0.7)
        upd_keys, upd_vals = make_insert_batch(keys, 100, 64, seed=61)
        tree.apply_batch(upd_keys, upd_vals)
        assert len(tree) == len(keys) + 100
        tree.check_invariants()
        assert np.array_equal(tree.lookup_batch(upd_keys), upd_vals)


class TestVectorizedKeepPath:
    """The batch write primitive (apply_batch) against the scalar loop."""

    def test_batch_matches_scalar_regular(self, base_data):
        keys, values = base_data
        batch_tree = RegularCpuBPlusTree(keys, values, fill=0.7)
        scalar_tree = RegularCpuBPlusTree(keys, values, fill=0.7)
        rng = np.random.default_rng(73)
        bk = rng.integers(1, 2**63, size=900, dtype=np.uint64)
        bv = bk ^ 0x55
        batch_tree.apply_batch(bk, bv)
        for k, v in zip(bk.tolist(), bv.tolist()):
            scalar_tree.insert(int(k), int(v))
        assert list(batch_tree.items()) == list(scalar_tree.items())
        batch_tree.check_invariants()

    def test_duplicate_keys_keep_last(self, base_data):
        keys, values = base_data
        tree = RegularCpuBPlusTree(keys, values, fill=0.7)
        k = int(keys[0]) + 1
        bk = np.asarray([k, k, k], dtype=np.uint64)
        bv = np.asarray([1, 2, 3], dtype=np.uint64)
        tree.apply_batch(bk, bv)
        assert tree.lookup(k) == 3
        tree.check_invariants()

    def test_async_mixed_upserts_and_deletes(self, base_data, m1):
        # a batch carrying both classes still matches the scalar replay
        keys, values = base_data
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        ref = RegularCpuBPlusTree(keys, values, fill=0.7)
        upd_keys, upd_vals = make_insert_batch(keys, 600, 64, seed=83)
        del_keys = keys[::37]
        AsyncBatchUpdater(t).apply(upd_keys, upd_vals, deletes=del_keys)
        for k, v in zip(upd_keys.tolist(), upd_vals.tolist()):
            ref.insert(int(k), int(v))
        for k in del_keys.tolist():
            ref.delete(int(k))
        assert list(t.cpu_tree.items()) == list(ref.items())
        t.cpu_tree.check_invariants()
