"""Level-wise frontier traversal kernel: geometry guards, degenerate
buckets, kernel equivalence, engine parity and cost-model-driven kernel
selection (DESIGN.md §13)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.faults import FaultInjector, FaultPlan
from repro.gpusim.kernels.frontier_search import (
    FRONTIER,
    KERNELS,
    PER_QUERY,
    launch_frontier_search,
    validate_kernel,
    validate_level_geometry,
)
from repro.gpusim.kernels.implicit_search import (
    implicit_descend,
    launch_implicit_search,
)
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset


@pytest.fixture(scope="module")
def data():
    return generate_dataset(4096, seed=13)


@pytest.fixture(scope="module")
def itree(data):
    keys, values = data
    return ImplicitHBPlusTree(keys, values, machine=machine_m1())


def device_counters(tree):
    c = tree.device.memory.counters
    return (
        int(tree.device.kernel_launches),
        int(c.transactions_64),
        int(c.bytes_moved),
    )


class TestKernelNames:
    def test_registry(self):
        assert KERNELS == (PER_QUERY, FRONTIER)
        assert validate_kernel(PER_QUERY) == PER_QUERY
        assert validate_kernel(FRONTIER) == FRONTIER

    def test_unknown_rejected(self, itree):
        with pytest.raises(ValueError, match="unknown GPU search kernel"):
            validate_kernel("warp_per_query")
        with pytest.raises(ValueError):
            itree.gpu_descend(np.zeros(1, dtype=np.uint64), kernel="nope")
        with pytest.raises(ValueError):
            BatchingEngine(itree, kernel="nope")


class TestGeometryValidation:
    """Satellite: a mismatched launch raises instead of misindexing."""

    def test_real_tree_geometry_passes(self, itree):
        validate_level_geometry(
            itree.level_offsets, itree.level_sizes, itree.gpu_depth,
            itree.cpu_tree.fanout, itree.iseg_buffer.array.size,
        )
        validate_level_geometry(
            itree.level_offsets, None, itree.gpu_depth,
            itree.cpu_tree.fanout, itree.iseg_buffer.array.size,
        )

    def test_depth_zero_trivially_valid(self):
        validate_level_geometry([], None, 0, 4, 0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(level_offsets=[0], depth=-1, fanout=4, total=16),
         "depth must be"),
        (dict(level_offsets=[0], depth=1, fanout=1, total=16),
         "fanout must be"),
        (dict(level_offsets=[4], depth=1, fanout=4, total=16),
         "root level"),
        (dict(level_offsets=[0], depth=2, fanout=4, total=16),
         "names 1 levels"),
        (dict(level_offsets=[0, 3], depth=2, fanout=4, total=16),
         "not a positive"),
        (dict(level_offsets=[0, 4], depth=2, fanout=4, total=4096),
         "address at most"),
    ])
    def test_bad_geometry_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            validate_level_geometry(
                kwargs["level_offsets"], None, kwargs["depth"],
                kwargs["fanout"], kwargs["total"],
            )

    def test_non_tiling_sizes_rejected(self):
        # explicit sizes that leave a gap between consecutive levels
        with pytest.raises(ValueError, match="tile the I-segment"):
            validate_level_geometry([0, 8], [4, 16], 2, 4, 24)

    def test_sizes_past_segment_end_rejected(self):
        # explicit sizes let the last level overrun the buffer
        with pytest.raises(ValueError, match="holds"):
            validate_level_geometry([0, 4], [4, 16], 2, 4, 16)

    def test_both_launchers_validate(self, itree):
        q = np.zeros(2, dtype=np.uint64)
        wrong_depth = itree.gpu_depth + 3
        with pytest.raises(ValueError):
            launch_implicit_search(
                itree.device, itree.iseg_buffer, itree.level_offsets,
                wrong_depth, itree.cpu_tree.fanout, q,
            )
        with pytest.raises(ValueError):
            launch_frontier_search(
                itree.device, itree.iseg_buffer, itree.level_offsets,
                wrong_depth, itree.cpu_tree.fanout, q,
            )
        with pytest.raises(ValueError):
            launch_frontier_search(
                itree.device, itree.iseg_buffer, itree.level_offsets,
                itree.gpu_depth, itree.cpu_tree.fanout + 1, q,
            )

    def test_vectorized_kernels_validate(self, itree):
        # both kernels' windows run the same checked descent: a wrong
        # depth raises instead of reading past the I-segment's levels
        q = np.zeros(2, dtype=np.uint64)
        zeros = np.zeros(2, dtype=np.int64)
        for kern in KERNELS:
            with pytest.raises(ValueError):
                implicit_descend(
                    itree.iseg_buffer.array, itree.level_offsets,
                    itree.level_sizes, itree.gpu_depth + 1,
                    itree.cpu_tree.fanout, q, zeros, zeros,
                    itree.coalescing_window(kern, len(q)),
                )

    def test_block_queries_validated(self, itree):
        zeros = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="group"):
            implicit_descend(
                itree.iseg_buffer.array, itree.level_offsets,
                itree.level_sizes, itree.gpu_depth,
                itree.cpu_tree.fanout, np.zeros(2, dtype=np.uint64),
                zeros, zeros, group=-1,
            )


class TestDegenerateBuckets:
    """Satellite: zero-length and single-query buckets are guarded and
    the degenerate frontier's counters match the per-query kernel."""

    def test_empty_bucket_no_launch_no_transactions(self, data):
        keys, values = data
        tree = ImplicitHBPlusTree(keys, values, machine=machine_m1())
        empty = np.array([], dtype=np.uint64)
        before = device_counters(tree)
        res = tree.gpu_search_bucket(empty, kernel=FRONTIER)
        assert len(res.codes) == 0
        assert res.transactions == 0
        assert device_counters(tree) == before

    def test_empty_engine_bucket(self, itree):
        engine = BatchingEngine(itree, kernel=FRONTIER)
        out = engine.lookup_batch(np.array([], dtype=np.uint64))
        assert len(out) == 0

    def test_single_query_counters_match_per_query(self, data):
        keys, values = data
        outs, counters, txns = [], [], []
        for kern in KERNELS:
            tree = ImplicitHBPlusTree(keys, values, machine=machine_m1())
            res = tree.gpu_search_bucket(keys[:1], kernel=kern)
            outs.append(res.codes)
            txns.append(res.transactions)
            counters.append(device_counters(tree))
        # one query = one frontier run per level = one warp window:
        # both kernels charge exactly depth transactions
        assert np.array_equal(outs[0], outs[1])
        assert txns[0] == txns[1]
        assert counters[0] == counters[1]

    def test_single_query_regular_counters_match(self, data):
        keys, values = data
        outs, counters = [], []
        for kern in KERNELS:
            tree = HBPlusTree(keys, values, machine=machine_m1())
            res = tree.gpu_search_bucket(keys[:1], kernel=kern)
            outs.append(res.codes)
            counters.append(device_counters(tree))
        assert np.array_equal(outs[0], outs[1])
        assert counters[0] == counters[1]

    def test_frontier_from_counted_all_cpu(self, itree, data):
        keys, _values = data
        q = np.unique(keys[:32])
        h = itree.gpu_depth
        leaf, txns = implicit_descend(
            itree.iseg_buffer.array, itree.level_offsets,
            itree.level_sizes, h, itree.cpu_tree.fanout, q,
            start_levels=np.full(len(q), h, dtype=np.int64),
            start_nodes=np.arange(len(q), dtype=np.int64),
            group=len(q),
        )
        assert np.array_equal(leaf, np.arange(len(q)))
        assert txns == 0


class TestKernelEquivalence:
    """Tentpole property: the frontier window of implicit_descend ≡
    frontier_search_kernel ≡ its per-query window, in results."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        picks=st.lists(st.integers(0, 4095), min_size=1, max_size=256),
        offset=st.sampled_from([0, 1]),
        sort=st.booleans(),
    )
    def test_vectorized_matches_per_query(self, itree, picks, offset, sort):
        keys = itree.cpu_tree.leaf_keys.reshape(-1)
        keys = keys[keys != itree.spec.max_value]
        q = keys[np.asarray(picks) % len(keys)] + np.uint64(offset)
        if sort:
            q = np.unique(q)
        args = (
            itree.iseg_buffer.array, itree.level_offsets,
            itree.level_sizes, itree.gpu_depth, itree.cpu_tree.fanout, q,
        )
        zeros = np.zeros(len(q), dtype=np.int64)
        ref, ref_txns = implicit_descend(
            *args, zeros, zeros, itree.teams_per_warp
        )
        out, txns = implicit_descend(*args, zeros, zeros, len(q))
        assert np.array_equal(out, ref)
        if sort:
            # the frontier's whole-block dedup can only beat (or tie)
            # the per-query kernel's warp-window coalescing
            assert txns <= ref_txns

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        picks=st.lists(st.integers(0, 4095), min_size=1, max_size=24),
        offset=st.sampled_from([0, 1]),
    )
    def test_literal_kernel_matches_vectorized(self, itree, picks, offset):
        keys = itree.cpu_tree.leaf_keys.reshape(-1)
        keys = keys[keys != itree.spec.max_value]
        q = keys[np.asarray(picks) % len(keys)] + np.uint64(offset)
        literal, _stats = launch_frontier_search(
            itree.device, itree.iseg_buffer, itree.level_offsets,
            itree.gpu_depth, itree.cpu_tree.fanout, q,
            level_sizes=itree.level_sizes,
        )
        zeros = np.zeros(len(q), dtype=np.int64)
        vector, _txns = implicit_descend(
            itree.iseg_buffer.array, itree.level_offsets,
            itree.level_sizes, itree.gpu_depth, itree.cpu_tree.fanout, q,
            zeros, zeros, len(q),
        )
        assert np.array_equal(literal, vector)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        picks=st.lists(st.integers(0, 4095), min_size=1, max_size=128),
        depth_frac=st.integers(0, 6),
        ratio=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    def test_from_counted_matches_per_query(self, itree, picks,
                                            depth_frac, ratio):
        from repro.core.load_balance import split_levels

        keys = itree.cpu_tree.leaf_keys.reshape(-1)
        keys = keys[keys != itree.spec.max_value]
        q = np.unique(keys[np.asarray(picks) % len(keys)])
        h = itree.cpu_tree.height
        levels = split_levels(len(q), min(depth_frac, h), ratio, h)
        nodes = itree.cpu_descend_top(q, levels)
        args = (
            itree.iseg_buffer.array, itree.level_offsets,
            itree.level_sizes, itree.gpu_depth, itree.cpu_tree.fanout, q,
        )
        ref, _t = implicit_descend(
            *args, start_levels=levels, start_nodes=nodes,
            group=itree.teams_per_warp,
        )
        out, _t2 = implicit_descend(
            *args, start_levels=levels, start_nodes=nodes, group=len(q),
        )
        assert np.array_equal(out, ref)

    def test_gpu_descend_kernel_dispatch(self, itree, data):
        keys, _values = data
        q = np.unique(keys[:512])
        pq, pq_txns = itree.gpu_descend(q, kernel=PER_QUERY)
        fr, fr_txns = itree.gpu_descend(q, kernel=FRONTIER)
        assert np.array_equal(pq, fr)
        # acceptance: at the paper geometry the frontier strictly wins
        # on a sorted multi-warp bucket
        assert fr_txns < pq_txns

    def test_regular_tree_codes_identical(self, data):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=machine_m1())
        q = np.unique(keys[:512])
        pq, pq_txns = tree.gpu_descend(q, kernel=PER_QUERY)
        fr, fr_txns = tree.gpu_descend(q, kernel=FRONTIER)
        assert np.array_equal(pq, fr)
        assert fr_txns <= pq_txns


class TestEngineKernelParity:
    """Satellite: engine runs with kernel="frontier" are bit-identical
    to kernel="per_query", including under any FaultPlan."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        picks=st.lists(st.integers(0, 4095), min_size=1, max_size=512),
        bucket=st.sampled_from([64, 256, 1024]),
        implicit=st.booleans(),
    )
    def test_batching_engine_bit_identical(self, data, picks, bucket,
                                           implicit):
        keys, values = data
        q = keys[np.asarray(picks) % len(keys)]
        outs, launches, txns = [], [], []
        for kern in KERNELS:
            cls = ImplicitHBPlusTree if implicit else HBPlusTree
            tree = cls(keys, values, machine=machine_m1())
            engine = BatchingEngine(tree, bucket_size=bucket, kernel=kern)
            outs.append(engine.lookup_batch(q))
            launches.append(int(tree.device.kernel_launches))
            txns.append(int(tree.device.memory.counters.transactions_64))
        assert np.array_equal(outs[0], outs[1])
        # the kernel moves the traversal schedule, never the launch
        # screening: identical launch counts, frontier never dearer
        assert launches[0] == launches[1]
        assert txns[1] <= txns[0]

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rate=st.sampled_from([0.1, 0.5]),
        fault_seed=st.integers(0, 2**16),
    )
    def test_fault_schedule_identical_across_kernels(self, data, rate,
                                                     fault_seed):
        keys, values = data
        plan = FaultPlan.uniform(rate, seed=fault_seed)
        q = np.tile(keys[:256], 4)

        def run(kern):
            injector = FaultInjector(plan)
            tree = HBPlusTree(
                keys, values, machine=machine_m1(), injector=injector,
            )
            engine = BatchingEngine(tree, bucket_size=128, kernel=kern)
            try:
                out, err = engine.lookup_batch(q), None
            except Exception as e:  # noqa: BLE001 - comparing fault types
                out, err = None, e
            return out, err, injector.schedule()

        pq_out, pq_err, pq_sched = run(PER_QUERY)
        fr_out, fr_err, fr_sched = run(FRONTIER)
        assert pq_sched == fr_sched
        assert (pq_err is None) == (fr_err is None)
        if pq_err is not None:
            assert type(fr_err) is type(pq_err)
            assert str(fr_err) == str(pq_err)
        else:
            np.testing.assert_array_equal(fr_out, pq_out)

    def test_implicit_launch_faults_identical_across_kernels(self, data):
        """The kernel choice must not move the injector draw stream:
        the implicit tree's launch-site faults fire at the same buckets
        either way."""
        keys, values = data
        q = np.tile(keys[:256], 4)
        plan = FaultPlan(seed=7, kernel_fail=0.3)

        def run(kern):
            tree = ImplicitHBPlusTree(keys, values, machine=machine_m1())
            injector = FaultInjector(plan)
            tree.device.injector = injector
            engine = BatchingEngine(tree, bucket_size=128, kernel=kern)
            try:
                out, err = engine.lookup_batch(q), None
            except Exception as e:  # noqa: BLE001 - comparing fault types
                out, err = None, e
            return out, err, injector.schedule()

        pq_out, pq_err, pq_sched = run(PER_QUERY)
        fr_out, fr_err, fr_sched = run(FRONTIER)
        assert pq_sched == fr_sched
        assert type(pq_err) is type(fr_err)
        if pq_err is None:
            np.testing.assert_array_equal(fr_out, pq_out)


class TestKernelSelection:
    """Tentpole: discovery prices both kernels and commits the cheaper
    (kernel, D, R) triple; the engines apply it per bucket."""

    def test_discovery_result_carries_kernel(self, itree):
        balancer = LoadBalancer(itree, sort_batches=True)
        result = balancer.discover()
        assert result.kernel in KERNELS
        assert balancer.kernel == result.kernel

    def test_frontier_wins_on_m1(self, itree):
        """At the paper's default geometry the frontier kernel's level
        costs are strictly below per-query, so discovery must not pick
        a per-query split that the frontier run beats."""
        balancer = LoadBalancer(itree, sort_batches=True)
        pq = balancer.gpu_costs_for(PER_QUERY)
        fr = balancer.gpu_costs_for(FRONTIER)
        assert sum(fr) < sum(pq)
        result = balancer.discover()
        # the committed cost equals an exhaustive per-kernel argmin
        for kern in KERNELS:
            _samples, best = balancer._discover_kernel(kern, None)
            assert result.cost_ns <= max(best[2], best[3])

    def test_allowed_kernels_pins_schedule(self, itree):
        balancer = LoadBalancer(
            itree, sort_batches=True, allowed_kernels=(PER_QUERY,)
        )
        assert balancer.candidate_kernels() == (PER_QUERY,)
        result = balancer.discover()
        assert result.kernel == PER_QUERY

    def test_allowed_kernels_validated(self, itree):
        with pytest.raises(ValueError):
            LoadBalancer(itree, allowed_kernels=("nope",))

    def test_sample_times_kernel_dimension(self, itree):
        balancer = LoadBalancer(itree, sort_batches=True)
        tg_pq, tc_pq = balancer.sample_times(0, 0.0, kernel=PER_QUERY)
        tg_fr, tc_fr = balancer.sample_times(0, 0.0, kernel=FRONTIER)
        assert tc_fr == tc_pq  # the CPU side is kernel-independent
        assert tg_fr < tg_pq

    def test_adaptive_controller_commits_kernel(self, itree, data):
        keys, _values = data
        controller = AdaptiveController.for_tree(
            itree, config=AdaptiveConfig(window_buckets=2,
                                         confirm_windows=1,
                                         hysteresis_gain=0.0),
            bucket_size=512,
        )
        assert controller.kernel in KERNELS
        assert controller.stats.kernel == controller.kernel
        engine = BatchingEngine(itree, bucket_size=512,
                                balancer=controller)
        ref = BatchingEngine(itree, bucket_size=512)
        q = np.tile(keys[:1024], 2)
        out = engine.lookup_batch(q)
        expected = ref.lookup_batch(q)
        assert np.array_equal(out, expected)

    def test_engine_explicit_kernel_overrides_balancer(self, itree, data):
        keys, _values = data
        controller = AdaptiveController.for_tree(itree, bucket_size=512)
        engine = BatchingEngine(itree, bucket_size=512,
                                balancer=controller, kernel=PER_QUERY)
        assert engine._bucket_kernel() == PER_QUERY
        engine2 = BatchingEngine(itree, bucket_size=512,
                                 balancer=controller)
        assert engine2._bucket_kernel() == controller.kernel
