"""Concurrent search/update engine (appendix B.3)."""

import numpy as np
import pytest

from repro.core.hbtree import HBPlusTree
from repro.core.mixed import ConcurrentQueryEngine, OptimisticMixedEngine
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_update_mix
from tests.kernel_oracles import literal_codes


@pytest.fixture(scope="module")
def data():
    return generate_dataset(1 << 13, seed=71)


@pytest.fixture()
def tree(data, m1):
    keys, values = data
    return HBPlusTree(keys, values, machine=m1, fill=0.7)


class TestFunctional:
    def test_searches_resolve(self, tree, data):
        keys, _values = data
        mix = make_update_mix(keys, 800, 0.2)
        res = ConcurrentQueryEngine(tree).run(mix)
        assert len(res.search_results) == len(mix.search_keys)
        assert np.all(res.search_results != tree.spec.max_value)

    def test_updates_apply(self, tree, data):
        keys, _values = data
        mix = make_update_mix(keys, 800, 0.5)
        ConcurrentQueryEngine(tree).run(mix)
        tree.cpu_tree.check_invariants()
        out = tree.lookup_batch(mix.update_keys)
        assert np.array_equal(out, mix.update_values)

    def test_mirror_consistent_after_run(self, tree, data):
        keys, _values = data
        mix = make_update_mix(keys, 600, 0.4)
        ConcurrentQueryEngine(tree).run(mix)
        probe = mix.update_keys[:32]
        literal = literal_codes(tree, probe)
        vector = tree.gpu_search_bucket(probe).codes
        assert np.array_equal(literal, vector)

    def test_pure_search_mix(self, tree, data):
        keys, _values = data
        mix = make_update_mix(keys, 400, 0.0)
        res = ConcurrentQueryEngine(tree).run(mix)
        assert res.schedule.per_tag_count.get("update", 0) == 0
        assert res.sync_transfer_ns == 0.0

    def test_invalid_method(self, tree, data):
        keys, _values = data
        mix = make_update_mix(keys, 10, 0.5)
        with pytest.raises(ValueError):
            ConcurrentQueryEngine(tree).run(mix, "eager")


class TestTemporal:
    def test_throughput_decreases_with_update_ratio(self, data, m1):
        keys, values = data
        throughputs = []
        for ratio in (0.0, 0.5, 1.0):
            t = HBPlusTree(keys, values, machine=m1, fill=0.7)
            mix = make_update_mix(keys, 1000, ratio)
            res = ConcurrentQueryEngine(t).run(mix)
            throughputs.append(res.throughput_ops)
        assert throughputs == sorted(throughputs, reverse=True)

    def test_sync_slower_than_async_with_updates(self, data, m1):
        keys, values = data
        mix = make_update_mix(keys, 1000, 0.5)
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        res_async = ConcurrentQueryEngine(t).run(mix, "async")
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        res_sync = ConcurrentQueryEngine(t).run(mix, "sync")
        assert res_sync.throughput_ops < res_async.throughput_ops

    def test_contention_grows_with_update_share(self, data, m1):
        keys, values = data
        rates = []
        for ratio in (0.1, 0.9):
            t = HBPlusTree(keys, values, machine=m1, fill=0.7)
            mix = make_update_mix(keys, 1500, ratio)
            res = ConcurrentQueryEngine(t).run(mix)
            rates.append(res.schedule.lock_stats.contention_rate)
        assert rates[1] >= rates[0]

    def test_more_threads_higher_throughput(self, data, m1):
        keys, values = data
        mix = make_update_mix(keys, 1000, 0.25)
        t1 = HBPlusTree(keys, values, machine=m1, fill=0.7)
        r1 = ConcurrentQueryEngine(t1, threads=1).run(mix)
        t2 = HBPlusTree(keys, values, machine=m1, fill=0.7)
        r8 = ConcurrentQueryEngine(t2, threads=8).run(mix)
        assert r8.throughput_ops > 3 * r1.throughput_ops


class TestRegressions:
    def test_empty_mix_throughput_is_zero(self, tree):
        # S1: a zero-op mix used to ZeroDivisionError in throughput_ops
        from repro.workloads.queries import QueryMix

        empty = QueryMix(
            search_keys=np.empty(0, dtype=np.uint64),
            update_keys=np.empty(0, dtype=np.uint64),
            update_values=np.empty(0, dtype=np.uint64),
            is_update=np.empty(0, dtype=bool),
        )
        res = ConcurrentQueryEngine(tree).run(empty)
        assert res.throughput_ops == 0.0
        assert res.total_ns == 0.0

    def test_cost_sampling_without_replacement(self, data, m1):
        # S2: the cost probe draws each stored key at most once
        keys, values = data
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        rng = np.random.default_rng(67)
        all_keys = np.asarray(
            [k for k, _v in t.cpu_tree.items()], dtype=t.spec.dtype
        )
        sample = rng.choice(
            all_keys, size=min(2048, len(all_keys)), replace=False
        )
        assert len(np.unique(sample)) == len(sample)
        # and the engine constructs fine on trees smaller than the
        # sample budget (replace=False would throw if size > population)
        small = HBPlusTree(keys[:100], values[:100], machine=m1)
        ConcurrentQueryEngine(small)


class TestOptimisticEngine:
    @pytest.fixture()
    def gapped_tree(self, data, m1):
        keys, values = data
        return HBPlusTree(keys, values, machine=m1, gapped=True, fill=0.7)

    def test_beats_both_baseline_methods(self, data, m1):
        # buckets big enough to amortize the mirror sync's one-time
        # PCIe t_init; tiny buckets are transfer-init-bound for every
        # method and the comparison degenerates
        keys, values = data
        for ratio in (0.05, 0.5):
            mix = make_update_mix(keys, 2000, ratio)
            t = HBPlusTree(keys, values, machine=m1, gapped=True, fill=0.7)
            res_opt = OptimisticMixedEngine(t).run(mix)
            for method in ("async", "sync"):
                base = HBPlusTree(keys, values, machine=m1, fill=0.7)
                res = ConcurrentQueryEngine(base).run(mix, method)
                assert res_opt.throughput_ops > res.throughput_ops
                assert np.array_equal(res_opt.search_results,
                                      res.search_results)

    def test_retries_grow_with_update_ratio(self, data, m1):
        keys, values = data
        retries = []
        for ratio in (0.05, 0.5):
            t = HBPlusTree(keys, values, machine=m1, gapped=True, fill=0.7)
            mix = make_update_mix(keys, 2000, ratio)
            retries.append(OptimisticMixedEngine(t).run(mix).retries)
        assert retries[1] > retries[0]

    def test_sparse_sync_cheaper_than_rebuild(self, data, m1, gapped_tree):
        keys, _values = data
        mix = make_update_mix(keys, 2000, 0.05)
        res = OptimisticMixedEngine(gapped_tree).run(mix)
        assert not res.mirror_rebuilt
        assert res.dirty_nodes > 0
        assert 0 < res.sync_bytes < gapped_tree.i_segment_bytes
        assert res.gap_writes > 0

    def test_deletes_apply_and_mirror_holds(self, data, m1, gapped_tree):
        keys, _values = data
        mix = make_update_mix(keys, 800, 0.2, delete_ratio=0.1)
        res = OptimisticMixedEngine(gapped_tree).run(mix)
        assert res.schedule.per_tag_count.get("delete", 0) > 0
        for k in mix.delete_keys.tolist():
            assert gapped_tree.cpu_tree.lookup(int(k)) is None
        gapped_tree.cpu_tree.check_invariants()
        probe = mix.update_keys[:64]
        assert np.array_equal(
            gapped_tree.lookup_batch(probe),
            gapped_tree.cpu_tree.lookup_batch(probe),
        )

    def test_fault_plan_absorbed(self, data, m1, gapped_tree):
        from repro.faults import FaultInjector, FaultPlan

        keys, _values = data
        engine = OptimisticMixedEngine(gapped_tree)
        gapped_tree.attach_injector(
            FaultInjector(FaultPlan.uniform(0.2, seed=5))
        )
        mix = make_update_mix(keys, 1500, 0.3)
        res = engine.run(mix)
        gapped_tree.injector.disable()
        assert np.array_equal(
            res.search_results,
            gapped_tree.cpu_tree.lookup_batch(mix.search_keys),
        )
        probe = np.concatenate([mix.search_keys[:64], mix.update_keys[:64]])
        assert np.array_equal(
            gapped_tree.lookup_batch(probe),
            gapped_tree.cpu_tree.lookup_batch(probe),
        )

    def test_works_on_ungapped_tree(self, data, m1):
        keys, values = data
        t = HBPlusTree(keys, values, machine=m1, fill=0.7)
        mix = make_update_mix(keys, 500, 0.25)
        res = OptimisticMixedEngine(t).run(mix)
        assert res.gap_writes == 0  # compact fallback costing
        assert np.array_equal(
            res.search_results, t.cpu_tree.lookup_batch(mix.search_keys)
        )

    def test_exhausted_fault_ladder_raises_typed_fault(self, data, m1,
                                                       gapped_tree):
        # a rate-1.0 plan can never sync: the bounded retry ladder must
        # propagate the *typed* FaultError (so resilience wrappers can
        # degrade on it), not die constructing a new one
        from repro.faults import FaultError, FaultInjector, FaultPlan

        keys, _values = data
        engine = OptimisticMixedEngine(gapped_tree)
        gapped_tree.attach_injector(
            FaultInjector(FaultPlan.uniform(1.0, seed=9))
        )
        mix = make_update_mix(keys, 200, 0.3)
        with pytest.raises(FaultError):
            engine.run(mix)
