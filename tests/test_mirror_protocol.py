"""The hybrid trees own their device image.

Each hybrid tree packs, uploads, verifies and repairs its own I-segment
mirror; the resilience wrapper, the updaters and the lifecycle call it
and keep no copy.  These tests pin what that ownership fixes: a wrapper
verifying against the tree's current image serves writes made to the
tree without it, the regular validator reads the device mirror, a
faulted push is absorbed inside ``sync_nodes``, and the implicit tree
answers the same protocol.
"""

import numpy as np
import pytest

from repro.core.gpu_update import GpuAssistedUpdater
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.mixed import SYNC_FAULT_RETRIES, OptimisticMixedEngine
from repro.core.resilience import ResilientHBPlusTree
from repro.core.update import AsyncBatchUpdater, SyncUpdater
from repro.faults import FaultError, FaultInjector, FaultPlan
from repro.platform.configs import machine_m1
from repro.validate import ValidationError, validate_index
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import QueryMix


def _fresh(stored: np.ndarray, n: int, seed: int) -> np.ndarray:
    """``n`` keys not in ``stored``, spread over its key range."""
    rng = np.random.default_rng(seed)
    cand = rng.integers(int(stored.min()), int(stored.max()), size=4 * n,
                        dtype=np.uint64)
    return rng.permutation(np.unique(cand[~np.isin(cand, stored)]))[:n]


class TestWritesAroundTheWrapper:
    """Writers that sync the tree's mirror themselves leave nothing
    for the wrapper to repair: it verifies against the tree's image,
    not a copy taken before those writes."""

    @pytest.mark.parametrize("writer", ["async", "gpu_assisted"])
    def test_wrapper_serves_direct_writes(self, writer):
        keys, values = generate_dataset(10_000, seed=3)
        tree = HBPlusTree(keys, values, machine=machine_m1(), fill=0.7)
        r = ResilientHBPlusTree(tree)
        fresh = _fresh(keys, 400, 17)
        vals = fresh ^ np.uint64(0x5A5A)
        if writer == "async":
            AsyncBatchUpdater(tree).apply(fresh, vals)
        else:
            GpuAssistedUpdater(tree).apply(fresh, vals)
        got = r.engine.lookup_batch(fresh)
        np.testing.assert_array_equal(got, tree.cpu_tree.lookup_batch(fresh))
        np.testing.assert_array_equal(got, vals)
        assert r.stats.checksum_failures == 0
        assert r.stats.faults_handled == 0
        assert tree.mirror_matches()


class TestRegularValidatorReadsTheMirror:
    def test_flipped_mirror_bit_fails_validation(self):
        keys, values = generate_dataset(4096, seed=5)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        validate_index(tree)
        mirror = tree.iseg_buffer.array
        mirror[len(mirror) // 2] ^= np.uint64(1 << 7)
        with pytest.raises(ValidationError, match="GPU mirror"):
            validate_index(tree)


class TestFaultedPushIsAbsorbedBySyncNodes:
    """Seed 2 of a 0.5 transfer-fail plan faults the batch's one push;
    the full rebuild that absorbs it lands."""

    def _tree(self):
        keys, values = generate_dataset(4096, seed=31)
        tree = HBPlusTree(keys, values, machine=machine_m1(), fill=0.7)
        tree.attach_injector(
            FaultInjector(FaultPlan(transfer_fail=0.5, seed=2))
        )
        fresh = np.setdiff1d(
            np.arange(1, 2**40, 2**40 // 25, dtype=np.uint64)[1:21], keys
        )
        return tree, fresh

    def test_sync_updater_reports_the_rebuilt_nodes(self):
        tree, fresh = self._tree()
        stats = SyncUpdater(tree).apply(fresh, fresh)
        cpu = tree.cpu_tree
        assert stats.sync_faults == 1
        assert stats.synced_nodes == cpu.upper.count + cpu.last.count
        assert stats.transfer_ns == pytest.approx(
            tree.link.time_ns(tree.pack_i_segment().nbytes))
        assert not tree.mirror_stale and tree.mirror_matches()

    def test_sync_nodes_counts_the_fault(self):
        tree, fresh = self._tree()
        mark = tree.mirror_mark()
        tree.cpu_tree.apply_batch(fresh, fresh,
                                  is_delete=np.zeros(len(fresh), bool))
        mirror = tree.sync_nodes(mark)
        assert (mirror.rebuilt, mirror.faults, mirror.transfers) == (
            True, 1, 1)
        assert tree.mirror_matches()


def test_optimistic_ladder_keeps_its_rebuild_attempts():
    """A dead link: the first push faults, then every rebuild does.
    ``SYNC_FAULT_RETRIES`` rebuilds follow the first fault in all (one
    inside ``sync_nodes``), then the fault propagates."""
    keys, values = generate_dataset(4096, seed=31)
    tree = HBPlusTree(keys, values, machine=machine_m1(), fill=0.7,
                      gapped=True)
    engine = OptimisticMixedEngine(tree)
    tree.attach_injector(FaultInjector(FaultPlan(transfer_fail=1.0, seed=1)))
    rebuilds = []
    real = tree.mirror_i_segment

    def counting():
        rebuilds.append(1)
        return real()

    tree.mirror_i_segment = counting
    fresh = _fresh(keys, 8, 4)
    mix = QueryMix(
        search_keys=keys[:8],
        update_keys=fresh,
        update_values=fresh,
        is_update=np.r_[np.zeros(8, bool), np.ones(8, bool)],
    )
    with pytest.raises(FaultError):
        engine.run(mix)
    assert len(rebuilds) == SYNC_FAULT_RETRIES
    assert tree.injector.stats.transfer_fails == SYNC_FAULT_RETRIES + 1


class TestImplicitTreeSpeaksTheProtocol:
    def test_image_layout_and_match(self):
        keys, values = generate_dataset(1 << 13, seed=9)
        tree = ImplicitHBPlusTree(keys, values, machine=machine_m1())
        image = tree.pack_i_segment()
        levels = tree.cpu_tree.inner_levels
        np.testing.assert_array_equal(
            image, np.concatenate([lvl.reshape(-1) for lvl in levels]))
        assert tree.mirror_layout() == {"gpu_depth": len(levels)}
        assert tree.mirror_matches()
        tree.iseg_buffer.array[-1] ^= tree.spec.dtype(1)
        assert not tree.mirror_matches()
        with pytest.raises(ValidationError, match="GPU mirror"):
            validate_index(tree)
        tree.mirror_i_segment()
        validate_index(tree)
