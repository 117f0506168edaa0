"""The sorted/deduplicated bucket execution engine (DESIGN.md §8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.wallclock import (
    arrival_order_transactions,
    pack_i_segment_scalar,
)
from repro.core.batching import (
    BatchingEngine,
    measure_sorted_delta,
    plan_bucket,
)
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.gpusim.kernels.coalesce import windowed_distinct
from repro.platform.costmodel import hybrid_bucket_costs
from repro.workloads.generators import generate_dataset, generate_skewed_queries


@pytest.fixture(scope="module")
def data():
    return generate_dataset(3000, seed=21)


@pytest.fixture(scope="module")
def hbr(data, m1):
    keys, values = data
    return HBPlusTree(keys, values, machine=m1)


@pytest.fixture(scope="module")
def hbi(data, m1):
    keys, values = data
    return ImplicitHBPlusTree(keys, values, machine=m1)


class TestWarpDistinct:
    def test_empty(self):
        assert windowed_distinct(np.zeros(0, dtype=np.int64), 4) == 0

    def test_all_equal_one_per_warp(self):
        v = np.zeros(8, dtype=np.int64)
        assert windowed_distinct(v, 4) == 2

    def test_all_distinct(self):
        v = np.arange(8, dtype=np.int64)
        assert windowed_distinct(v, 4) == 8

    def test_tail_window(self):
        v = np.asarray([1, 1, 2, 2, 3], dtype=np.int64)
        # full window {1,1,2,2} = 2 distinct, tail {3} = 1
        assert windowed_distinct(v, 4) == 3

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_sorting_never_increases_transactions(self, values):
        """Sorting never increases the count beyond the boundary slack.

        A sorted stream's per-warp distinct total is at most the global
        distinct count plus one split per warp boundary (a run cut in
        two), and any arrival order pays at least the global distinct
        count — so sorted <= arrival + (windows - 1).  Without the
        slack the claim is false: [0,0,0,2,1,1] in warps of 4 charges
        3, its sorted twin [0,0,0,1 | 1,2] charges 4.
        """
        v = np.asarray(values, dtype=np.int64)
        windows = -(-len(v) // 4)
        assert windowed_distinct(np.sort(v), 4) <= windowed_distinct(v, 4) + windows - 1


class TestBucketPlan:
    def test_plan_dedups_and_sorts(self):
        q = np.asarray([5, 3, 5, 1, 3], dtype=np.uint64)
        plan = plan_bucket(q)
        assert np.array_equal(plan.sorted_unique, [1, 3, 5])
        assert plan.n_unique == 3
        assert plan.n_queries == 5
        assert plan.duplicate_fraction == pytest.approx(0.4)
        assert np.array_equal(plan.scatter(plan.sorted_unique), q)

    def test_empty_plan(self):
        plan = plan_bucket(np.zeros(0, dtype=np.uint64))
        assert plan.n_queries == 0
        assert plan.n_unique == 0
        assert plan.duplicate_fraction == 0.0
        assert len(plan.scatter(np.zeros(0, dtype=np.uint64))) == 0


@pytest.mark.parametrize("tree_fixture", ["hbr", "hbi"])
class TestEngineEquivalence:
    def test_bit_identical_to_naive(self, tree_fixture, request, data):
        tree = request.getfixturevalue(tree_fixture)
        keys, _values = data
        rng = np.random.default_rng(7)
        queries = rng.choice(keys, size=2048, replace=True)
        engine = BatchingEngine(tree)
        assert np.array_equal(
            engine.lookup_batch(queries), tree.lookup_batch(queries)
        )

    def test_missing_keys_stay_missing(self, tree_fixture, request, data):
        tree = request.getfixturevalue(tree_fixture)
        keys, _values = data
        probes = np.asarray(
            [int(keys[0]) + 1, int(keys[-1]) + 1, 12345], dtype=np.uint64
        )
        engine = BatchingEngine(tree)
        assert np.array_equal(
            engine.lookup_batch(probes), tree.lookup_batch(probes)
        )

    def test_empty_bucket(self, tree_fixture, request):
        tree = request.getfixturevalue(tree_fixture)
        engine = BatchingEngine(tree)
        empty = np.zeros(0, dtype=np.uint64)
        assert len(engine.lookup_batch(empty)) == 0
        assert len(tree.lookup_batch(empty)) == 0
        result = tree.gpu_search_bucket(empty)
        assert result.transactions == 0
        assert result.transactions_per_query == 0.0

    def test_modeled_transactions_pure(self, tree_fixture, request, data):
        """The baseline measurement must not touch device counters."""
        tree = request.getfixturevalue(tree_fixture)
        keys, _values = data
        before = tree.device.memory.counters.transactions_64
        txns = tree.modeled_transactions(keys[:512])
        assert txns > 0
        assert tree.device.memory.counters.transactions_64 == before
        assert tree.modeled_transactions(np.zeros(0, dtype=np.uint64)) == 0


@pytest.mark.parametrize("tree_fixture", ["hbr", "hbi"])
class TestSortedGain:
    def test_sorted_never_costs_more(self, tree_fixture, request, data):
        tree = request.getfixturevalue(tree_fixture)
        keys, _values = data
        rng = np.random.default_rng(11)
        queries = rng.choice(keys, size=4096, replace=True)
        delta = measure_sorted_delta(tree, queries)
        assert delta.sorted_transactions <= delta.unsorted_transactions

    def test_zipf_workload_measurable_reduction(self, tree_fixture, request):
        """The PR's core claim: skewed buckets cost measurably fewer
        transactions once sorted and deduplicated."""
        tree = request.getfixturevalue(tree_fixture)
        queries = generate_skewed_queries("zipf", 4096, seed=19)
        delta = measure_sorted_delta(tree, queries)
        assert delta.unique < delta.queries  # duplicate-heavy indeed
        assert delta.gain > 0.5
        engine = BatchingEngine(tree)
        engine.lookup_batch(queries)
        baseline = arrival_order_transactions(engine, queries)
        assert 1.0 - engine.stats.transactions / baseline > 0.5
        assert engine.stats.duplicate_fraction > 0.0


class TestEngineHypothesis:
    @given(
        request_keys=st.lists(
            st.integers(0, 2**63), min_size=1, max_size=300
        ),
        heavy=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sort_dedup_scatter_bit_identical(self, hbr, data,
                                              request_keys, heavy):
        """Random and duplicate-heavy buckets: engine == naive path."""
        keys, _values = data
        q = np.asarray(request_keys, dtype=np.uint64)
        if heavy:
            # duplicate-heavy: fold the domain onto a few stored keys
            q = keys[q % np.uint64(16)]
        q = np.minimum(q, np.uint64(hbr.spec.max_value - 1))
        engine = BatchingEngine(hbr)
        assert np.array_equal(engine.lookup_batch(q), hbr.lookup_batch(q))
        # the measured baseline can never be beaten by arrival order
        assert engine.stats.transactions <= arrival_order_transactions(
            engine, q)


class TestEngineInputs:
    def test_accepts_python_ints_and_narrow_dtypes(self, hbr, data):
        keys, _values = data
        engine = BatchingEngine(hbr, bucket_size=64)
        ref = engine.lookup_batch(keys[:8])
        as_py = engine.lookup_batch([int(k) for k in keys[:8]])
        np.testing.assert_array_equal(as_py, ref)
        narrow = (keys[:8] % np.uint64(2**31)).astype(np.int32)
        ref_narrow = engine.lookup_batch(narrow.astype(np.uint64))
        np.testing.assert_array_equal(
            engine.lookup_batch(narrow), ref_narrow
        )
        with pytest.raises(OverflowError):
            engine.lookup_batch([-1])
        with pytest.raises(TypeError):
            engine.lookup_batch(np.array([2.5]))

    @pytest.mark.parametrize("bucket_size", [-4, -1])
    def test_negative_bucket_size_rejected(self, hbr, bucket_size):
        """Rejected at construction, so scans cannot silently return
        nothing where lookups would raise."""
        with pytest.raises(ValueError, match="bucket size"):
            BatchingEngine(hbr, bucket_size=bucket_size)


class TestBucketCosts:
    def test_empty_tree_raises_value_error(self, m1):
        tree = HBPlusTree(machine=m1)
        with pytest.raises(ValueError, match="empty"):
            tree.bucket_costs()

    def test_tiny_tree_samples_with_replacement(self, m1):
        keys = np.arange(1, 8, dtype=np.uint64) * 97
        tree = HBPlusTree(keys, keys, machine=m1)
        costs = tree.bucket_costs()
        assert costs.sequential > 0

    def test_empty_sample_rejected(self, hbr):
        with pytest.raises(ValueError, match="non-empty"):
            hbr.bucket_costs(sample=np.zeros(0, dtype=np.uint64))

    def test_sort_batches_lowers_gpu_stage(self, hbr):
        queries = generate_skewed_queries("zipf", 4096, seed=19)
        plain = hbr.bucket_costs(sample=queries)
        sorted_costs = hbr.bucket_costs(sample=queries, sort_batches=True)
        assert sorted_costs.t2 < plain.t2
        assert sorted_costs.sequential < plain.sequential

    def test_sort_batches_implicit(self, hbi):
        queries = generate_skewed_queries("zipf", 4096, seed=19)
        plain = hbi.bucket_costs(sample=queries)
        sorted_costs = hbi.bucket_costs(sample=queries, sort_batches=True)
        assert sorted_costs.t2 < plain.t2

    def test_unique_fraction_validation(self, hbr, m1):
        profile = hbr.profile_leaf_stage(
            np.asarray([1, 2, 3], dtype=np.uint64)
        )
        with pytest.raises(ValueError):
            hybrid_bucket_costs(
                m1, hbr.spec, 1024,
                gpu_transactions_per_query=1.0, gpu_levels=3.0,
                cpu_leaf_profile=profile, unique_fraction=0.0,
            )


class TestVectorizedPacking:
    def test_pack_matches_scalar_reference(self, hbr):
        assert np.array_equal(
            hbr.pack_i_segment(), pack_i_segment_scalar(hbr)
        )

    def test_pack_matches_after_updates(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1, fill=0.7)
        for k in range(100):
            tree.cpu_tree.insert(int(keys[-1]) + 2 * k + 2, k)
        assert np.array_equal(
            tree.pack_i_segment(), pack_i_segment_scalar(tree)
        )


class TestTouchLines:
    def test_counter_identical_to_loop(self, data, m1):
        keys, values = data
        tree_a = HBPlusTree(keys, values, machine=m1)
        tree_b = HBPlusTree(keys, values, machine=m1)
        rng = np.random.default_rng(3)
        total = tree_a.cpu_tree.leaves.count * tree_a.cpu_tree.leaves.lines_per_leaf
        idx = rng.integers(0, total, size=2000)
        for t in (tree_a, tree_b):
            t.cpu_tree._ensure_segments()
            t.mem.flush()
            t.mem.reset_counters()
        for i in idx.tolist():
            tree_a.mem.touch_line(tree_a.cpu_tree.l_segment, int(i))
        tree_b.mem.touch_lines(tree_b.cpu_tree.l_segment, idx)
        ca, cb = tree_a.mem.counters, tree_b.mem.counters
        assert ca.line_accesses == cb.line_accesses
        assert ca.cache_hits == cb.cache_hits
        assert ca.cache_misses == cb.cache_misses
        assert ca.tlb_hits == cb.tlb_hits
        assert ca.tlb_misses_small == cb.tlb_misses_small
        assert ca.tlb_misses_huge == cb.tlb_misses_huge
        assert ca.prefetches == cb.prefetches

    def test_empty_batch(self, hbr):
        hbr.cpu_tree._ensure_segments()
        assert hbr.mem.touch_lines(
            hbr.cpu_tree.l_segment, np.zeros(0, dtype=np.int64)
        ) == 0

    def test_out_of_bounds_rejected(self, hbr):
        hbr.cpu_tree._ensure_segments()
        with pytest.raises(ValueError):
            hbr.mem.touch_lines(
                hbr.cpu_tree.l_segment, np.asarray([10**12])
            )


class TestLoadBalancerSortBatches:
    def test_sorted_profile_not_worse(self, hbi):
        plain = LoadBalancer(hbi)
        srt = LoadBalancer(hbi, sort_batches=True)
        # sorted distinct streams coalesce at least as well per level
        assert sum(srt.gpu_level_ns) <= sum(plain.gpu_level_ns) * 1.0001
        assert srt.discover().depth >= 0
