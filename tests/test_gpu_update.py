"""GPU-assisted batch updates (section 7 future work)."""

import numpy as np
import pytest

from repro.core.gpu_update import GpuAssistedUpdater
from repro.core.hbtree import HBPlusTree
from repro.core.update import AsyncBatchUpdater
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_insert_batch
from tests.kernel_oracles import literal_codes


@pytest.fixture(scope="module")
def data():
    return generate_dataset(1 << 14, seed=44)


@pytest.fixture()
def tree(data, m1):
    keys, values = data
    return HBPlusTree(keys, values, machine=m1, fill=0.7)


@pytest.fixture(scope="module")
def batch(data):
    keys, _values = data
    return make_insert_batch(keys, 1500, 64, seed=45)


class TestFunctional:
    def test_inserts_land(self, tree, data, batch):
        keys, values = data
        upd_keys, upd_vals = batch
        stats = GpuAssistedUpdater(tree).apply(upd_keys, upd_vals)
        tree.cpu_tree.check_invariants()
        assert stats.applied == len(upd_keys)
        assert np.array_equal(tree.lookup_batch(upd_keys), upd_vals)
        assert np.array_equal(tree.lookup_batch(keys), values)

    def test_matches_cpu_updater_result(self, data, batch, m1):
        keys, values = data
        upd_keys, upd_vals = batch
        gpu_tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        GpuAssistedUpdater(gpu_tree).apply(upd_keys, upd_vals)
        cpu_tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        AsyncBatchUpdater(cpu_tree).apply(upd_keys, upd_vals)
        assert list(gpu_tree.cpu_tree.items()) == list(cpu_tree.cpu_tree.items())

    def test_overwrites_existing(self, tree, data):
        keys, _values = data
        new_vals = np.arange(300, dtype=np.uint64)
        GpuAssistedUpdater(tree).apply(keys[:300], new_vals)
        assert np.array_equal(tree.lookup_batch(keys[:300]), new_vals)
        assert len(tree) == len(keys)  # no growth on overwrite

    def test_mirror_consistent_after(self, tree, batch):
        upd_keys, upd_vals = batch
        GpuAssistedUpdater(tree).apply(upd_keys, upd_vals)
        literal = literal_codes(tree, upd_keys[:48])
        vector = tree.gpu_search_bucket(upd_keys[:48]).codes
        assert np.array_equal(literal, vector)

    def test_empty_batch(self, tree):
        stats = GpuAssistedUpdater(tree).apply([], [])
        assert stats.applied == 0
        assert stats.total_ns == 0.0

    def test_splits_redescend(self, data, m1):
        """Force splits: a packed tree must re-descend those inserts
        and still end up correct."""
        keys, values = data
        packed = HBPlusTree(keys, values, machine=m1, fill=1.0)
        upd_keys, upd_vals = make_insert_batch(keys, 600, 64, seed=46)
        stats = GpuAssistedUpdater(packed).apply(upd_keys, upd_vals)
        packed.cpu_tree.check_invariants()
        assert stats.redescended > 0
        assert np.array_equal(packed.lookup_batch(upd_keys), upd_vals)


class TestCostModel:
    def test_step_times_recorded(self, tree, batch):
        upd_keys, upd_vals = batch
        stats = GpuAssistedUpdater(tree).apply(upd_keys, upd_vals)
        assert stats.gpu_locate_ns > 0
        assert stats.transfer_in_ns > 0
        assert stats.transfer_out_ns > 0
        assert stats.total_ns > stats.modify_ns

    def test_beats_cpu_async_for_large_batches(self, data, m1):
        """The future-work hypothesis: offloading the descent pays."""
        keys, values = data
        upd_keys, upd_vals = make_insert_batch(keys, 3000, 64, seed=47)
        t1 = HBPlusTree(keys, values, machine=m1, fill=0.7)
        gpu_stats = GpuAssistedUpdater(t1).apply(upd_keys, upd_vals)
        t2 = HBPlusTree(keys, values, machine=m1, fill=0.7)
        cpu_stats = AsyncBatchUpdater(t2).apply(upd_keys, upd_vals)
        assert gpu_stats.total_ns < cpu_stats.total_ns

    def test_transfer_excludable(self, tree, batch):
        upd_keys, upd_vals = batch
        stats = GpuAssistedUpdater(tree).apply(
            upd_keys, upd_vals, transfer=False
        )
        assert stats.transfer_ns == 0.0
