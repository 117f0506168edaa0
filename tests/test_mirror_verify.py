"""Mirror verification by comparison, and the one-pack update path.

The resilient tree verifies the device mirror against its expected
image before every hybrid batch and takes that image from the pack the
last full mirror upload made.  These tests pin both down: under random
bitflip plans every flip is caught and repaired before a hybrid answer
is computed, and after every update batch the expected image is the
CPU tree's current one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.hbtree import HBPlusTree
from repro.core.resilience import ResilienceConfig, ResilientHBPlusTree
from repro.core.update import AsyncBatchUpdater, SyncUpdater
from repro.faults import FaultInjector, FaultPlan
from repro.platform.configs import machine_m1
from repro.validate import validate_index
from repro.workloads.generators import generate_dataset


#: the update method a case drives under the policy's write hook
UPDATERS = {"async": AsyncBatchUpdater, "sync": SyncUpdater}


class RefMap:
    """A sorted reference map with the tree's not-found sentinel."""

    def __init__(self, keys, values, sentinel):
        self.d = {int(k): int(v) for k, v in zip(keys, values)}
        self.sentinel = sentinel

    def lookup(self, q):
        return np.asarray([self.d.get(int(k), self.sentinel) for k in q],
                          dtype=np.uint64)

    def scan(self, lo, hi):
        return sorted((k, v) for k, v in self.d.items() if lo <= k <= hi)


def guard_engine(r: ResilientHBPlusTree, seen: list) -> None:
    """Check the mirror equals the CPU tree's image whenever the engine
    is about to compute a hybrid answer: the bucket loop and the scan
    bucket the resilience policy runs once it has verified the mirror."""
    tree = r.tree
    engine = r.engine
    for name in ("lookup_buckets", "scan_bucket"):
        inner = getattr(engine, name)

        def guarded(*args, _inner=inner, **kwargs):
            assert np.array_equal(tree.iseg_buffer.array,
                                  tree.pack_i_segment())
            seen.append(1)
            return _inner(*args, **kwargs)

        setattr(engine, name, guarded)


class TestBitflipProperty:
    @given(
        rate=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        method=st.sampled_from(["async", "sync"]),
    )
    @example(rate=1.0, seed=7, method="async")
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_flip_repaired_before_the_next_answer(self, rate, seed,
                                                        method):
        keys, values = generate_dataset(3000, seed=8)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        injector = FaultInjector(FaultPlan(bitflip=rate, seed=seed))
        # never degrade for cost, so every step stays exposed to flips
        r = ResilientHBPlusTree(tree, injector=injector,
                                config=ResilienceConfig(degrade_margin=1e9))
        ref = RefMap(keys, values, tree.spec.max_value)
        hybrid = []
        guard_engine(r, hybrid)
        rng = np.random.default_rng(seed)
        for step in range(8):
            if step % 4 == 3:
                ups = rng.integers(1, 2**40, size=48, dtype=np.uint64)
                vals = rng.integers(0, 2**40, size=48, dtype=np.uint64)
                dels = rng.choice(np.fromiter(ref.d, dtype=np.uint64), 16)
                r.serve_updates(UPDATERS[method](tree).apply, ups, vals,
                                dels)
                for k, v in zip(ups.tolist(), vals.tolist()):
                    ref.d[k] = v
                for k in dels.tolist():
                    ref.d.pop(k, None)
            elif step % 4 == 2:
                los = rng.integers(0, 2**40, size=8, dtype=np.uint64)
                his = los + np.uint64(2**31)
                rows = r.engine.run_scans(los, his)
                for got, lo, hi in zip(rows, los.tolist(), his.tolist()):
                    assert [tuple(x) for x in got] == ref.scan(lo, hi)
            else:
                stored = np.fromiter(ref.d, dtype=np.uint64)
                q = np.concatenate([
                    rng.choice(stored, 200),
                    rng.integers(0, 2**40, size=56, dtype=np.uint64),
                ])
                np.testing.assert_array_equal(r.engine.lookup_batch(q),
                                              ref.lookup(q))
            np.testing.assert_array_equal(tree.iseg_buffer.array,
                                          tree.pack_i_segment())
            assert r.stats.checksum_failures == injector.stats.bitflips
        assert len(hybrid) >= 6, "batches were not served hybrid"
        if rate == 1.0:
            assert injector.stats.bitflips == len(hybrid)


class TestOnePackPerUpdateBatch:
    PLANS = {
        "fault-free": None,
        "transfer+sync": FaultPlan(transfer_fail=0.3, sync_interrupt=0.3,
                                   seed=4),
    }

    @pytest.mark.parametrize("method", ["async", "sync"])
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_expected_is_current_after_every_update(self, plan, method):
        keys, values = generate_dataset(1 << 13, seed=5)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        fault_plan = self.PLANS[plan]
        r = ResilientHBPlusTree(
            tree,
            injector=FaultInjector(fault_plan) if fault_plan else None,
        )
        rng = np.random.default_rng(2)
        for _ in range(6):
            ups = rng.integers(1, 2**40, size=96, dtype=np.uint64)
            dels = rng.choice(keys, 32)
            r.serve_updates(UPDATERS[method](tree).apply, ups, ups, dels)
            np.testing.assert_array_equal(tree.current_i_segment_image(),
                                          tree.pack_i_segment())

    def test_async_batch_packs_once(self, monkeypatch):
        keys, values = generate_dataset(1 << 13, seed=5)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        r = ResilientHBPlusTree(tree)
        packs = []
        real = tree.pack_i_segment

        def counting():
            packs.append(1)
            return real()

        monkeypatch.setattr(tree, "pack_i_segment", counting)
        ups = np.arange(1, 97, dtype=np.uint64) * np.uint64(7919)
        r.serve_updates(AsyncBatchUpdater(tree).apply, ups, ups)
        assert len(packs) == 1
        monkeypatch.undo()
        np.testing.assert_array_equal(tree.current_i_segment_image(),
                                      tree.pack_i_segment())

    def test_stale_image_is_repacked(self):
        keys, values = generate_dataset(1 << 12, seed=5)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        before = tree.current_i_segment_image()
        # a key beyond the maximum raises routing keys: inner writes
        tree.cpu_tree.insert(int(keys.max()) + 1, 1)
        after = tree.current_i_segment_image()
        assert after is not before
        np.testing.assert_array_equal(after, tree.pack_i_segment())

    def test_splits_deletes_and_root_collapse_keep_the_image_current(self):
        """Every inner-node write path bumps the pools' write stamps:
        with the packed image primed before each mutation, the reused
        image still equals a fresh pack after it."""
        keys, values = generate_dataset(1 << 14, seed=7)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        cpu = tree.cpu_tree
        tree.mirror_i_segment()

        def mutate_and_check(op, k):
            tree.current_i_segment_image()
            op(int(k))
            np.testing.assert_array_equal(tree.current_i_segment_image(),
                                          tree.pack_i_segment())

        rng = np.random.default_rng(3)
        grown = rng.integers(1, 2**40, size=400, dtype=np.uint64)
        height0, leaves0 = cpu.height, len(cpu.leaf_chain())
        for k in grown:
            mutate_and_check(lambda key: cpu.insert(key, 1), k)
        # leaf splits filled the root, which split in turn
        assert len(cpu.leaf_chain()) > leaves0 and cpu.height > height0
        tree.mirror_i_segment()
        validate_index(tree)
        peak = cpu.height
        for k in np.sort(np.concatenate([keys, grown])):
            mutate_and_check(cpu.delete, k)
        assert cpu.height < peak, "the root never collapsed"
        assert len(cpu) == 0
        tree.mirror_i_segment()
        validate_index(tree)

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_expected_is_current_through_delete_collapse(self, plan):
        keys, values = generate_dataset(1 << 11, seed=9)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        fault_plan = self.PLANS[plan]
        r = ResilientHBPlusTree(
            tree,
            injector=FaultInjector(fault_plan) if fault_plan else None,
        )
        rng = np.random.default_rng(4)
        ups = rng.integers(1, 2**40, size=1500, dtype=np.uint64)
        r.engine.apply_updates(ups, ups)
        np.testing.assert_array_equal(tree.current_i_segment_image(),
                                      tree.pack_i_segment())
        peak = tree.cpu_tree.height
        doomed = np.concatenate([keys, ups])
        for chunk in np.array_split(doomed, 8):
            r.engine.apply_updates(np.empty(0, np.uint64),
                                   np.empty(0, np.uint64), chunk)
            np.testing.assert_array_equal(tree.current_i_segment_image(),
                                          tree.pack_i_segment())
        assert tree.cpu_tree.height < peak, "the root never collapsed"
