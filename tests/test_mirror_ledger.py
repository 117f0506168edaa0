"""The write ledger behind ``HBPlusTree.verify_mirror``.

Every write to the device mirror or to the expected image enters its
rows in the tree's ledger, and a verify compares only those rows plus
the row the corruption screen flipped.  The suite-wide shadow in
``conftest.py`` checks every verify of every test against the
whole-image compare of :mod:`tests.mirror_oracles`; these tests drive
the ledger's own states through it: the tail growth and the size
change that fall back to the whole image, an interrupted sync, a
ledger that overflows while the breaker is open, and the cost of a
clean verify, which reads no whole-image array.
"""

import numpy as np
import pytest

from repro.core.hbtree import HBPlusTree
from repro.core.resilience import ResilienceConfig, ResilientHBPlusTree
from repro.core.update import AsyncBatchUpdater, SyncUpdater
from repro.faults import FaultError, FaultInjector, FaultPlan, SyncInterrupted
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset
from tests.mirror_oracles import LEDGER_VERIFY, full_diff_rows
from tests.test_mirror_sync import _fresh_keys as _fresh


def _inner_write(tree):
    """One upsert that rewrites a last-level node in place: a fresh
    key in the middle of a 0.7-full tree shifts its leaf's lines, and
    the node's line keys with them, without a split."""
    stored = tree.cpu_tree.stored_keys()
    key = stored[len(stored) // 2] + np.uint64(1)
    assert key not in stored
    return np.asarray([key], np.uint64), np.ones(1, np.uint64)


def _rows(tree):
    return tree.iseg_buffer.array.size // tree.node_stride


def test_the_suite_verifies_through_the_shadow(mirror_ledger_shadow):
    keys, values = generate_dataset(2048, seed=2)
    tree = HBPlusTree(keys, values, machine=machine_m1())
    calls = mirror_ledger_shadow.calls
    assert HBPlusTree.verify_mirror is not LEDGER_VERIFY
    assert len(tree.verify_mirror()) == 0
    assert mirror_ledger_shadow.calls == calls + 1
    assert mirror_ledger_shadow.mismatches == []


class TestFallbacks:
    def test_tail_growth_compares_the_whole_image(self, m1):
        # 16 full big leaves: a fresh insert splits one and appends a
        # last-level node, which grows both sides at their tail
        keys, values = generate_dataset(4096, seed=3)
        tree = HBPlusTree(keys, values, machine=m1, fill=1.0)
        size0 = tree.iseg_buffer.array.size
        SyncUpdater(tree).apply(_fresh(tree, 8, 5), np.ones(8, np.uint64))
        assert tree.iseg_buffer.array.size > size0
        assert tree._ledger is None
        assert len(tree.verify_mirror()) == 0
        assert tree._ledger_size == 0

    def test_size_change_returns_none(self, m1):
        keys, values = generate_dataset(4096, seed=3)
        tree = HBPlusTree(keys, values, machine=m1, fill=1.0)
        # leaves split outside any sync: the expected image outgrows
        # the mirror
        for k in _fresh(tree, 8, 6).tolist():
            tree.cpu_tree.insert(k, 1)
        assert tree.verify_mirror() is None
        assert full_diff_rows(tree) is None
        tree.mirror_i_segment()
        assert len(tree.verify_mirror()) == 0

    def test_unsynced_write_repacks_and_finds_its_rows(self, m1):
        keys, values = generate_dataset(1 << 12, seed=5)
        tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        assert len(tree.verify_mirror()) == 0
        ups, vals = _inner_write(tree)
        tree.cpu_tree.apply_batch(ups, vals)
        rows = tree.verify_mirror()
        assert rows is not None and len(rows) > 0
        # until a repair, every verify reports the same rows
        np.testing.assert_array_equal(tree.verify_mirror(), rows)

    def test_interrupted_sync_finds_the_rows_it_left_behind(self, m1):
        keys, values = generate_dataset(1 << 12, seed=5)
        tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        tree.attach_injector(FaultInjector(FaultPlan(sync_interrupt=1.0)))
        with pytest.raises(SyncInterrupted):
            AsyncBatchUpdater(tree).apply(*_inner_write(tree))
        assert tree.mirror_stale
        rows = tree.verify_mirror()
        assert rows is not None and len(rows) > 0
        # a repair of those rows leaves nothing behind
        for row in rows.tolist():
            tree.push_mirror_rows(row, row + 1)
        assert len(tree.verify_mirror()) == 0

    def test_faulted_push_compares_the_whole_image(self, m1):
        keys, values = generate_dataset(4096, seed=31)
        tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        tree.attach_injector(FaultInjector(FaultPlan(transfer_fail=1.0)))
        with pytest.raises(FaultError):
            tree.push_mirror_rows(0, 1)
        assert tree._ledger is None
        assert len(tree.verify_mirror()) == 0


def test_open_breaker_keeps_the_ledger_bounded(mirror_ledger_shadow):
    keys, values = generate_dataset(1 << 12, seed=8)
    tree = HBPlusTree(keys, values, machine=machine_m1(), fill=0.7)
    r = ResilientHBPlusTree(
        tree, injector=FaultInjector(FaultPlan(bitflip=0.5, seed=3)),
        config=ResilienceConfig(degrade_margin=1e9))
    r.breaker.trip()
    verifies = mirror_ledger_shadow.calls
    overflowed = False
    for seed in range(40):
        ups = _fresh(tree, 24, 100 + seed)
        r.engine.apply_updates(ups, ups,
                               tree.cpu_tree.stored_keys()[seed::97])
        if tree._ledger is None:
            overflowed = True
            break
        assert tree._ledger_size <= _rows(tree)
        assert sum(len(rows) for rows in tree._ledger) == tree._ledger_size
    assert overflowed, "the ledger never reached its bound"
    assert mirror_ledger_shadow.calls == verifies
    # recovery without a refresh: the next verify reads the ledger's
    # fallback, and the shadow checks it against the whole image
    r.breaker.close()
    q = tree.cpu_tree.stored_keys()[::13]
    np.testing.assert_array_equal(r.engine.lookup_batch(q),
                                  tree.cpu_tree.lookup_batch(q))
    assert tree._ledger is not None
    assert tree.mirror_matches()


class _Counting(np.ndarray):
    """A view that records the size of every operand of this type a
    ufunc or array function reads."""

    reads: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counting.reads += [x.size for x in inputs
                            if isinstance(x, _Counting)]
        plain = [x.view(np.ndarray) if isinstance(x, _Counting) else x
                 for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _Counting.reads += [x.size for x in args if isinstance(x, _Counting)]
        plain = [x.view(np.ndarray) if isinstance(x, _Counting) else x
                 for x in args]
        return func(*plain, **kwargs)


class TestCleanVerifyCost:
    def _tree(self):
        keys, values = generate_dataset(1 << 16, seed=12)
        tree = HBPlusTree(keys, values, machine=machine_m1(), fill=0.7)
        tree.iseg_buffer.array = tree.iseg_buffer.array.view(_Counting)
        stamp, image = tree._packed
        tree._packed = (stamp, image.view(_Counting))
        _Counting.reads = []
        return tree

    def test_repeated_clean_verifies_read_no_image(self):
        tree = self._tree()
        for _ in range(5):
            assert len(LEDGER_VERIFY(tree)) == 0
        assert _Counting.reads == []

    def test_verify_after_a_ranged_sync_reads_the_pushed_rows(self):
        tree = self._tree()
        size = tree.iseg_buffer.array.size
        stats = SyncUpdater(tree).apply(*_inner_write(tree))
        assert tree.iseg_buffer.array.size == size
        assert 0 < stats.synced_nodes < _rows(tree)
        _Counting.reads = []
        assert len(LEDGER_VERIFY(tree)) == 0
        assert _Counting.reads == [stats.synced_nodes * tree.node_stride] * 2
        _Counting.reads = []
        assert len(LEDGER_VERIFY(tree)) == 0
        assert _Counting.reads == []
