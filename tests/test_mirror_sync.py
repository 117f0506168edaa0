"""Node-granular mirror sync: the version-stamp dirty set (section 5.6).

A write batch marks the inner pools (``HBPlusTree.mirror_mark``) and
``HBPlusTree.sync_nodes`` pushes exactly the nodes written since: the
ones whose version moved plus appended last-level nodes, which grow
the device buffer and the expected image at their tail.  Only an
upper-level split, a height change, a mirror that was already behind
or pushes dearer than one full upload rebuild the whole mirror.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.update as update_mod
from repro.core.hbtree import HBPlusTree
from repro.core.resilience import ResilientHBPlusTree
from repro.core.update import (
    ASYNC_GROUP_SIZE,
    ASYNC_PARALLEL_SPEEDUP,
    LOCK_OVERHEAD_FACTOR,
    AsyncBatchUpdater,
    SyncUpdater,
)
from repro.faults import FaultInjector, FaultPlan
from repro.platform.configs import machine_m1
from repro.validate import validate_hybrid_regular
from repro.workloads.generators import generate_dataset


def _counting_rebuilds(tree):
    """Wrap the tree's full mirror upload with a call counter."""
    calls = []
    real = tree.mirror_i_segment

    def counting():
        calls.append(1)
        return real()

    tree.mirror_i_segment = counting
    return calls


def _assert_mirror_current(tree):
    expected = tree.pack_i_segment()
    np.testing.assert_array_equal(tree.iseg_buffer.array, expected)
    np.testing.assert_array_equal(tree.current_i_segment_image(), expected)
    assert tree.last_base == tree.cpu_tree.upper.count


def _fresh_keys(tree, n, seed):
    rng = np.random.default_rng(seed)
    stored = tree.cpu_tree.stored_keys()
    out = rng.integers(1, 2**40, size=4 * n, dtype=np.uint64)
    out = np.unique(out[~np.isin(out, stored)])
    return rng.permutation(out)[:n]


@pytest.fixture()
def packed_tree(m1):
    # 16 full big leaves under one root: a fresh insert splits a leaf,
    # and the root has room for the new child
    keys, values = generate_dataset(4096, seed=3)
    return HBPlusTree(keys, values, machine=m1, fill=1.0)


class TestDirtySetSync:
    def test_value_overwrite_pushes_nothing(self, packed_tree):
        tree = packed_tree
        keys = tree.cpu_tree.stored_keys()[::97]
        bytes0 = tree.link.stats.bytes_to_device
        stats = SyncUpdater(tree).apply(keys, keys + np.uint64(1))
        assert stats.synced_nodes == 0
        assert stats.transfer_ns == 0.0
        assert tree.link.stats.bytes_to_device == bytes0
        np.testing.assert_array_equal(tree.lookup_batch(keys),
                                      keys + np.uint64(1))
        _assert_mirror_current(tree)

    def test_leaf_split_pushes_its_nodes_without_rebuild(self, packed_tree):
        tree = packed_tree
        rebuilds = _counting_rebuilds(tree)
        last0 = tree.cpu_tree.last.count
        bytes0 = tree.link.stats.bytes_to_device
        stats = SyncUpdater(tree).apply(_fresh_keys(tree, 1, 5),
                                        np.ones(1, np.uint64))
        assert tree.cpu_tree.last.count == last0 + 1
        assert rebuilds == []
        # the split leaf's node, the appended node and their parent
        assert stats.synced_nodes == 3
        node_bytes = tree.node_stride * 8
        assert tree.link.stats.bytes_to_device - bytes0 == 3 * node_bytes
        _assert_mirror_current(tree)

    def test_growth_slack_is_bounded_and_starts_at_first_growth(
            self, packed_tree):
        tree = packed_tree
        buf = tree.iseg_buffer
        assert buf.allocated_bytes == buf.nbytes
        slack = []
        for seed in range(6):
            SyncUpdater(tree).apply(_fresh_keys(tree, 8, seed),
                                    np.ones(8, np.uint64))
            assert buf.nbytes == tree.pack_i_segment().nbytes
            assert buf.allocated_bytes <= buf.nbytes + buf.nbytes // 8
            image = tree.current_i_segment_image()
            assert image.base.nbytes <= image.nbytes + image.nbytes // 8
            slack.append(buf.allocated_bytes - buf.nbytes)
        assert max(slack) > 0
        _assert_mirror_current(tree)

    def test_upper_split_rebuilds_once(self, m1):
        # 64 full leaves fill the root: the first split splits it too
        keys, values = generate_dataset(64 * 256, seed=4)
        tree = HBPlusTree(keys, values, machine=m1, fill=1.0)
        rebuilds = _counting_rebuilds(tree)
        height0 = tree.cpu_tree.height
        stats = SyncUpdater(tree).apply(_fresh_keys(tree, 1, 6),
                                        np.ones(1, np.uint64))
        assert tree.cpu_tree.height == height0 + 1
        assert rebuilds == [1]
        assert stats.transfer_ns == pytest.approx(
            tree.link.time_ns(tree.pack_i_segment().nbytes))
        _assert_mirror_current(tree)

    def test_rebuild_time_is_charged_when_the_mirror_was_behind(self):
        """Leaves split outside the sync path leave the pools past the
        mirrored rows; the next batch's full upload is its cost."""
        keys, values = generate_dataset(40_000, seed=8)
        tree = HBPlusTree(keys, values, machine=machine_m1(), fill=1.0)
        cpu = tree.cpu_tree
        last0 = cpu.last.count
        for k in _fresh_keys(tree, 4, 9).tolist():
            cpu.insert(k, 1)
        assert cpu.last.count > last0
        # overwrite one key of a node past the mirrored rows
        past = cpu.last.count - 1
        key = cpu.leaves.keys[past, 0]
        stats = SyncUpdater(tree).apply(np.asarray([key]),
                                        np.asarray([7], np.uint64))
        rebuild_ns = tree.link.time_ns(tree.pack_i_segment().nbytes)
        assert stats.transfer_ns == pytest.approx(rebuild_ns)
        assert tree.lookup_batch(np.asarray([key]))[0] == 7
        _assert_mirror_current(tree)

    def test_resilient_sync_never_repacks(self, packed_tree, monkeypatch):
        tree = packed_tree
        r = ResilientHBPlusTree(tree)
        packs = []
        real = tree.pack_i_segment

        def counting():
            packs.append(1)
            return real()

        monkeypatch.setattr(tree, "pack_i_segment", counting)
        for seed in range(3):
            ups = _fresh_keys(tree, 16, 20 + seed)
            dels = tree.cpu_tree.stored_keys()[seed::301]
            r.engine.apply_updates(ups, ups, dels)
        assert packs == []
        monkeypatch.undo()
        np.testing.assert_array_equal(tree.current_i_segment_image(),
                                      tree.pack_i_segment())
        _assert_mirror_current(tree)


class TestAsyncConflictCharge:
    def test_each_lock_conflict_is_charged_once(self, m1, monkeypatch):
        keys, values = generate_dataset(4096, seed=31)
        tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        per_update_ns = 100.0
        monkeypatch.setattr(update_mod, "_per_update_ns",
                            lambda *_a: per_update_ns)
        # overwrites only: nothing defers, every group has conflicts
        rng = np.random.default_rng(12)
        ups = rng.choice(keys, 2 * ASYNC_GROUP_SIZE + 100)
        updater = AsyncBatchUpdater(tree)
        stats = updater.apply(ups, ups, transfer=False)
        assert stats.deferred == 0
        assert stats.lock_conflicts > 0
        parallel = (stats.applied * per_update_ns * LOCK_OVERHEAD_FACTOR
                    / min(ASYNC_PARALLEL_SPEEDUP, updater.threads))
        conflicts = stats.lock_conflicts * per_update_ns * 0.5
        assert stats.modify_ns == pytest.approx(parallel + conflicts)


# --- property: every batch leaves the mirror equal to a fresh pack -------

batches = st.lists(
    st.tuples(
        st.integers(0, 24),               # fresh inserts
        st.integers(0, 8),                # overwrites
        st.integers(0, 8),                # deletes
        st.booleans(),                    # empty one whole leaf
        st.integers(0, 2**16),            # seed of the batch's keys
    ),
    min_size=1, max_size=6,
)

PROPERTY = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _batch(tree, spec):
    """One batch: fresh keys packed into one key region (so splits
    cascade), overwrites, deletes and optionally every key of one
    leaf (an empty-leaf collapse that frees a node for reuse)."""
    n_fresh, n_over, n_del, empty_leaf, seed = spec
    rng = np.random.default_rng(seed)
    cpu = tree.cpu_tree
    stored = cpu.stored_keys()
    lo = int(stored[rng.integers(0, len(stored))])
    fresh = lo + rng.integers(1, 2**20, size=n_fresh, dtype=np.uint64)
    fresh = np.unique(fresh[~np.isin(fresh, stored)])
    over = rng.choice(stored, n_over) if n_over else stored[:0]
    dels = [rng.choice(stored, n_del, replace=False)] if n_del else []
    if empty_leaf:
        chain = cpu.leaf_chain()
        leaf = int(chain[rng.integers(0, len(chain))])
        dels.append(cpu.leaves.keys[leaf, : cpu.leaves.size[leaf]])
    dels = np.setdiff1d(np.concatenate(dels) if dels else stored[:0],
                        np.concatenate([fresh, over]))
    ups = np.concatenate([fresh, over]).astype(np.uint64)
    return ups, ups ^ np.uint64(0x5A), dels.astype(np.uint64)


def _property_tree():
    # 63 full leaves: the root fills after one split and grows a level
    keys, values = generate_dataset(63 * 256, seed=11)
    return HBPlusTree(keys, values, machine=machine_m1(), fill=1.0)


@given(specs=batches)
@PROPERTY
def test_sync_keeps_mirror_equal_to_a_fresh_pack(specs):
    tree = _property_tree()
    cpu = tree.cpu_tree
    rebuilds = _counting_rebuilds(tree)
    for spec in specs:
        upper0, height0 = cpu.upper.count, cpu.height
        before = len(rebuilds)
        ups, vals, dels = _batch(tree, spec)
        SyncUpdater(tree).apply(ups, vals, dels)
        _assert_mirror_current(tree)
        if len(rebuilds) != before:
            assert (cpu.upper.count, cpu.height) != (upper0, height0)
        np.testing.assert_array_equal(tree.lookup_batch(ups), vals)
        assert np.all(tree.lookup_batch(dels) == tree.spec.max_value)
    cpu.check_invariants()


@given(specs=batches)
@PROPERTY
def test_resilient_sync_validates_under_transfer_faults(specs):
    tree = _property_tree()
    plan = FaultPlan(seed=3, transfer_fail=0.1, transfer_timeout=0.05)
    r = ResilientHBPlusTree(tree, injector=FaultInjector(plan))
    for spec in specs:
        ups, vals, dels = _batch(tree, spec)
        r.engine.apply_updates(ups, vals, dels)
        np.testing.assert_array_equal(tree.current_i_segment_image(),
                                      tree.pack_i_segment())
        if not tree.mirror_stale:
            validate_hybrid_regular(tree)
        np.testing.assert_array_equal(r.engine.lookup_batch(ups), vals)
