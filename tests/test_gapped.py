"""Gapped-leaf CPU B+-tree (BS-tree style) + the optimistic engine's
bit-identity property (DESIGN.md §14)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.hbtree import HBPlusTree
from repro.core.mixed import OptimisticMixedEngine
from repro.cpu import GappedCpuBPlusTree, GapStats
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.faults import FaultError, FaultInjector, FaultPlan
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_update_mix


@pytest.fixture(scope="module")
def data():
    return generate_dataset(1 << 13, seed=91)


@pytest.fixture()
def pair(data):
    """A gapped tree and its compact twin over the same pairs."""
    keys, values = data
    return (
        GappedCpuBPlusTree(keys, values, fill=0.7),
        RegularCpuBPlusTree(keys, values, fill=0.7),
    )


class TestLayout:
    def test_bulk_build_bit_identical(self, pair, data):
        keys, _values = data
        gapped, compact = pair
        assert np.array_equal(
            gapped.lookup_batch(keys), compact.lookup_batch(keys)
        )
        gapped.check_invariants()

    def test_gaps_interleaved_at_build_fill(self, pair):
        gapped, _compact = pair
        assert 0.6 < gapped.gap_occupancy() < 0.8
        # gaps are spread through the extent, not packed at the tail:
        # some gap slot must sit strictly left of a real slot
        leaf = gapped._first_leaf
        row = gapped.leaves.gap[leaf]
        extent = int(gapped.leaves.size[leaf])
        assert row[:extent].any() and not row[extent - 1]

    def test_items_exclude_gaps(self, pair, data):
        keys, _values = data
        gapped, _compact = pair
        assert [k for k, _v in gapped.items()] == sorted(keys.tolist())

    def test_range_query_matches_compact(self, pair, data):
        keys, _values = data
        gapped, compact = pair
        lo, hi = int(keys.min()), int(np.median(keys))
        assert list(gapped.range_query(lo, hi)) == list(
            compact.range_query(lo, hi)
        )

    def test_missing_key_misses(self, pair, data):
        keys, _values = data
        gapped, _compact = pair
        missing = int(keys.max()) + 1
        assert gapped.lookup(missing) is None


class TestWritePaths:
    def test_insert_lands_in_gap(self, pair):
        gapped, _compact = pair
        before = gapped.gap_stats.copy()
        # plenty of gaps at fill=0.7: fresh keys overwhelmingly land
        # in place
        rng = np.random.default_rng(3)
        fresh = rng.integers(1, 2**63, size=64, dtype=np.uint64)
        fresh = fresh[~np.isin(fresh, gapped.stored_keys())]
        for k in fresh.tolist():
            gapped.insert(int(k), int(k) ^ 0xFF)
        delta = gapped.gap_stats.gap_writes - before.gap_writes
        assert delta > 0
        # what remains shifts only a short run toward the nearest gap,
        # never the compact layout's half-leaf
        shifts = gapped.gap_stats.shift_writes - before.shift_writes
        moved = gapped.gap_stats.shifted_pairs - before.shifted_pairs
        if shifts:
            assert moved / shifts < 4
        gapped.check_invariants()
        for k in fresh.tolist():
            assert gapped.lookup(int(k)) == int(k) ^ 0xFF

    def test_overwrite_existing_key(self, pair, data):
        keys, _values = data
        gapped, _compact = pair
        target = int(keys[7])
        gapped.insert(target, 123456)
        assert gapped.lookup(target) == 123456
        assert len(gapped) == len(keys)
        gapped.check_invariants()

    def test_delete_marks_gap(self, pair, data):
        keys, _values = data
        gapped, _compact = pair
        before = gapped.gap_stats.gap_deletes
        victims = keys[::97]
        for k in victims.tolist():
            assert gapped.delete(int(k))
        assert gapped.gap_stats.gap_deletes > before
        for k in victims.tolist():
            assert gapped.lookup(int(k)) is None
        assert len(gapped) == len(keys) - len(victims)
        gapped.check_invariants()

    def test_gap_exhaustion_splits(self):
        # fill=1.0 builds gap-free leaves, so the very next insert has
        # to take the split path and re-spread both halves
        keys = np.arange(1, 4097, dtype=np.uint64) * 5
        tree = GappedCpuBPlusTree(keys, keys, fill=1.0)
        assert tree.gap_occupancy() == pytest.approx(1.0)
        rng = np.random.default_rng(11)
        fresh = np.unique(
            rng.integers(1, int(keys.max()), size=512, dtype=np.uint64)
        )
        fresh = fresh[~np.isin(fresh, keys)]
        for k in fresh.tolist():
            tree.insert(int(k), int(k) + 1)
        assert tree.gap_stats.splits > 0
        tree.check_invariants()
        assert np.array_equal(
            tree.lookup_batch(fresh), (fresh + 1).astype(fresh.dtype)
        )
        assert np.array_equal(tree.lookup_batch(keys), keys)

    def test_storm_matches_compact_twin(self, pair, data):
        keys, _values = data
        gapped, compact = pair
        rng = np.random.default_rng(23)
        fresh = np.unique(
            rng.integers(1, 2**63, size=400, dtype=np.uint64)
        )
        fresh = fresh[~np.isin(fresh, gapped.stored_keys())]
        victims = keys[::53]
        for k in fresh.tolist():
            gapped.insert(int(k), int(k) // 3)
            compact.insert(int(k), int(k) // 3)
        for k in victims.tolist():
            assert gapped.delete(int(k)) == compact.delete(int(k))
        assert list(gapped.items()) == list(compact.items())
        gapped.check_invariants()

    def test_insert_batch_matches_scalar(self, data):
        keys, values = data
        batch_tree = GappedCpuBPlusTree(keys, values, fill=0.7)
        scalar_tree = GappedCpuBPlusTree(keys, values, fill=0.7)
        rng = np.random.default_rng(31)
        bk = rng.integers(1, 2**63, size=1024, dtype=np.uint64)
        bv = bk ^ 0xAB
        batch_tree.apply_batch(bk, bv)
        # keep-last dedup semantics: scalar replay in stream order
        for k, v in zip(bk.tolist(), bv.tolist()):
            scalar_tree.insert(int(k), int(v))
        assert list(batch_tree.items()) == list(scalar_tree.items())
        batch_tree.check_invariants()


class TestGapStats:
    def test_copy_and_reset(self):
        stats = GapStats(gap_writes=3, shift_writes=1, shifted_pairs=4)
        snap = stats.copy()
        stats.reset()
        assert snap.gap_writes == 3 and stats.gap_writes == 0
        assert snap.in_place_fraction == pytest.approx(0.75)
        assert GapStats().in_place_fraction == 0.0


# --- S4: the engine-level bit-identity property -----------------------

ENGINE_EXAMPLES = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestOptimisticEngineProperty:
    @given(
        n_ops=st.integers(min_value=1, max_value=80),
        update_pct=st.integers(min_value=0, max_value=80),
        delete_pct=st.integers(min_value=0, max_value=20),
        fill=st.sampled_from([0.7, 1.0]),
        fault_rate=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @ENGINE_EXAMPLES
    def test_bit_identical_to_sequential_baseline(
        self, m1, n_ops, update_pct, delete_pct, fill, fault_rate, seed
    ):
        """Any mix, any ratio, any fault plan: the gapped optimistic
        engine's tree *and* GPU mirror answer exactly like an ungapped
        tree that applied the same ops one at a time.

        ``fill=1.0`` builds gap-free leaves so inserts exercise the
        split path (structural change -> full mirror rebuild);
        ``fault_rate>0`` exercises the sync retry/rebuild ladder.
        """
        keys, values = generate_dataset(512, seed=seed % 7 + 1)
        mix = make_update_mix(
            keys, n_ops, update_pct / 100, seed=seed,
            delete_ratio=delete_pct / 100,
        )

        opt_tree = HBPlusTree(
            keys, values, machine=m1, gapped=True, fill=fill
        )
        engine = OptimisticMixedEngine(opt_tree)
        if fault_rate:
            opt_tree.attach_injector(
                FaultInjector(FaultPlan.uniform(fault_rate, seed=seed))
            )
        try:
            result = engine.run(mix)
        except FaultError:
            # an unlucky deterministic fault sequence can exhaust the
            # SYNC_FAULT_RETRIES ladder even at rate < 1.0; the engine's
            # documented contract is to propagate the typed fault so a
            # resilient wrapper can degrade (see _rebuild_with_retries).
            # Bit-identity is only claimed for runs that complete.
            assume(False)
        if opt_tree.injector is not None:
            # faults are scoped to the engine run under test; the
            # verification lookups below must see a quiet device
            opt_tree.injector.disable()

        ref_tree = HBPlusTree(keys, values, machine=m1)
        upd = iter(zip(mix.update_keys.tolist(),
                       mix.update_values.tolist()))
        dels = iter(mix.delete_keys.tolist())
        is_delete = (
            mix.is_delete
            if mix.is_delete is not None
            else np.zeros(len(mix), dtype=bool)
        )
        for is_up, is_del in zip(mix.is_update.tolist(),
                                 is_delete.tolist()):
            if is_del:
                ref_tree.cpu_tree.delete(int(next(dels)))
            elif is_up:
                k, v = next(upd)
                ref_tree.cpu_tree.insert(int(k), int(v))
        ref_tree.mirror_i_segment()

        # the engine's own answers, in stream order
        assert np.array_equal(
            result.search_results,
            ref_tree.cpu_tree.lookup_batch(mix.search_keys),
        )
        # every key class through both full trees, GPU mirror included
        probe = np.concatenate(
            [keys, mix.update_keys, mix.delete_keys]
        ).astype(keys.dtype)
        assert np.array_equal(
            opt_tree.cpu_tree.lookup_batch(probe),
            ref_tree.cpu_tree.lookup_batch(probe),
        )
        assert np.array_equal(
            opt_tree.lookup_batch(probe), ref_tree.lookup_batch(probe)
        )
        opt_tree.cpu_tree.check_invariants()
