"""The generic leaf-stored hybrid framework (section 7 future work)."""

import dataclasses

import numpy as np
import pytest

from repro.bench.figures.common import dataset_and_queries
from repro.core.framework import CssTreeAdapter, HybridFramework
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import SplitCostModel
from repro.cpu.css_tree import CssTree
from repro.memsim.mainmem import MemorySystem
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_point_queries


@pytest.fixture(scope="module")
def data():
    keys, values = generate_dataset(1 << 14, seed=23)
    sample = make_point_queries(keys, 1024)
    return keys, values, sample


def make_adapter(kind, keys, values, machine):
    if kind == "implicit":
        return ImplicitHBPlusTree(keys, values, machine=machine)
    if kind == "css":
        return CssTreeAdapter(
            CssTree(keys, values, mem=MemorySystem.from_spec(machine.cpu)),
            machine,
        )
    return HBPlusTree(keys, values, machine=machine)


ADAPTERS = ["implicit", "css", "regular"]


class TestPlanning:
    @pytest.mark.parametrize("kind", ADAPTERS)
    def test_plan_produces_valid_knobs(self, data, m1, kind):
        keys, values, sample = data
        fw = HybridFramework(make_adapter(kind, keys, values, m1), m1,
                             sample=sample)
        plan = fw.plan()
        assert plan.mode in ("cpu-only", "hybrid", "balanced")
        assert 0 <= plan.depth <= fw.tree.height
        assert 0.0 <= plan.ratio <= 1.0
        assert plan.bucket_size in (8192, 16384, 32768, 65536)
        assert plan.predicted_qps > 0
        assert "cpu-only" in plan.alternatives

    @pytest.mark.parametrize("kind", ADAPTERS)
    def test_strong_gpu_machine_goes_hybrid(self, data, m1, kind):
        keys, values, sample = data
        fw = HybridFramework(make_adapter(kind, keys, values, m1), m1,
                             sample=sample)
        plan = fw.plan()
        assert plan.mode in ("hybrid", "balanced")
        assert plan.predicted_qps > plan.alternatives["cpu-only"]

    def test_weak_gpu_machine_balances_or_bails(self, data, m2):
        keys, values, sample = data
        fw = HybridFramework(
            make_adapter("implicit", keys, values, m2), m2, sample=sample
        )
        plan = fw.plan()
        # with a weak GPU the framework must not pick plain hybrid
        assert plan.mode in ("balanced", "cpu-only")

    def test_regular_adapter_never_balanced(self, data, m2):
        keys, values, sample = data
        fw = HybridFramework(
            make_adapter("regular", keys, values, m2), m2, sample=sample
        )
        plan = fw.plan()
        assert plan.mode in ("cpu-only", "hybrid")

    def test_plan_requires_sample(self, data, m1):
        keys, values, _sample = data
        fw = HybridFramework(make_adapter("css", keys, values, m1), m1)
        with pytest.raises(ValueError):
            fw.plan()

    def test_describe_is_readable(self, data, m1):
        keys, values, sample = data
        fw = HybridFramework(make_adapter("implicit", keys, values, m1),
                             m1, sample=sample)
        text = fw.plan().describe()
        assert "MQPS" in text and "D=" in text


class TestExecution:
    @pytest.mark.parametrize("kind", ADAPTERS)
    @pytest.mark.parametrize("machine_name", ["m1", "m2"])
    def test_results_correct_under_any_plan(self, data, m1, m2, kind,
                                            machine_name):
        keys, values, sample = data
        machine = m1 if machine_name == "m1" else m2
        fw = HybridFramework(make_adapter(kind, keys, values, machine),
                             machine, sample=sample)
        fw.plan()
        out = fw.execute(keys[:1500])
        assert np.array_equal(out, values[:1500])

    @pytest.mark.parametrize("kind", ["implicit", "css"])
    def test_forced_balanced_mode_correct(self, data, m1, kind):
        keys, values, sample = data
        fw = HybridFramework(make_adapter(kind, keys, values, m1), m1,
                             sample=sample)
        plan = fw.plan()
        plan.mode = "balanced"
        plan.depth = min(2, fw.tree.height)
        plan.ratio = 0.5
        out = fw.execute(keys[:800])
        assert np.array_equal(out, values[:800])

    @pytest.mark.parametrize("kind", ADAPTERS)
    def test_forced_cpu_only_correct(self, data, m1, kind):
        keys, values, sample = data
        fw = HybridFramework(make_adapter(kind, keys, values, m1), m1,
                             sample=sample)
        plan = fw.plan()
        plan.mode = "cpu-only"
        out = fw.execute(keys[:800])
        assert np.array_equal(out, values[:800])

    def test_absent_keys(self, data, m1):
        keys, values, sample = data
        fw = HybridFramework(make_adapter("css", keys, values, m1), m1,
                             sample=sample)
        fw.plan()
        probe = np.asarray([int(keys.max()) + 3], dtype=np.uint64)
        out = fw.execute(probe)
        assert out[0] == fw.tree.spec.max_value

    def test_execute_plans_lazily(self, data, m1):
        keys, values, sample = data
        fw = HybridFramework(make_adapter("implicit", keys, values, m1),
                             m1, sample=sample)
        out = fw.execute(keys[:100])  # no explicit plan() call
        assert fw.plan_result is not None
        assert np.array_equal(out, values[:100])


class TestAdapters:
    def test_implicit_gpu_resume_matches_full(self, data, m1):
        keys, values, sample = data
        adapter = make_adapter("implicit", keys, values, m1)
        q = np.asarray(keys[:256], dtype=np.uint64)
        full = adapter.lookup_batch(q)
        levels = np.full(len(q), 2, dtype=np.int64)
        nodes = adapter.cpu_descend_top(q, levels)
        refs, _txn = adapter.gpu_descend_from(q, levels, nodes)
        split = adapter.cpu_finish_bucket(q, refs)
        assert np.array_equal(full, split)

    def test_css_gpu_resume_matches_full(self, data, m1):
        keys, values, sample = data
        adapter = make_adapter("css", keys, values, m1)
        q = np.asarray(keys[:256], dtype=np.uint64)
        full = adapter.lookup_batch(q)
        levels = np.full(len(q), 1, dtype=np.int64)
        nodes = adapter.cpu_descend_top(q, levels)
        refs, _txn = adapter.gpu_descend_from(q, levels, nodes)
        assert np.array_equal(adapter.cpu_finish_bucket(q, refs), full)

    def test_css_split_transactions_match_modeled(self, data, m1):
        # the resumed descent charges the same coalescing model as the
        # pricing path, not one transaction per query per level
        keys, values, sample = data
        adapter = make_adapter("css", keys, values, m1)
        q = np.sort(np.asarray(sample[:256], dtype=np.uint64))
        zeros = np.zeros(len(q), dtype=np.int64)
        _refs, txns = adapter.gpu_descend_from(q, zeros, zeros)
        assert txns == adapter.modeled_transactions(q)
        assert txns < len(q) * adapter.height
        levels = np.full(len(q), adapter.height, dtype=np.int64)
        nodes = adapter.cpu_descend_top(q, levels)
        refs, txns = adapter.gpu_descend_from(q, levels, nodes)
        assert txns == 0
        assert np.array_equal(adapter.cpu_finish_bucket(q, refs),
                              adapter.lookup_batch(q))

    def test_css_lookup_counts_its_launch(self, data, m1):
        # a hybrid lookup through the adapter screens and counts one
        # kernel launch and books its transactions, as both HB+-trees do
        keys, values, sample = data
        adapter = make_adapter("css", keys, values, m1)
        q = np.asarray(sample[:512], dtype=np.uint64)
        txns = adapter.modeled_transactions(q)
        counters = adapter.device.memory.counters
        launches = adapter.device.kernel_launches
        booked = counters.transactions_64
        adapter.lookup_batch(q)
        assert adapter.device.kernel_launches == launches + 1
        assert counters.transactions_64 == booked + txns
        assert txns > 0

    @pytest.mark.parametrize("kind", ADAPTERS)
    def test_level_profiles_shape(self, data, m1, kind):
        keys, values, sample = data
        adapter = make_adapter(kind, keys, values, m1)
        profiles, leaf = adapter.level_profiles(sample[:512])
        assert len(profiles) == adapter.height
        assert leaf.misses >= 0

    @pytest.mark.parametrize("kind", ADAPTERS)
    def test_gpu_transactions_positive(self, data, m1, kind):
        keys, values, sample = data
        adapter = make_adapter(kind, keys, values, m1)
        assert adapter.modeled_transactions(sample[:512]) > 0

    @pytest.mark.parametrize("kind", ADAPTERS)
    def test_split_model_draws_its_own_sample(self, data, m1, kind):
        """A SplitCostModel profiles any adapter from the one stored-key
        sampler, exactly as from an explicit ``key_sample(23, 2048)``."""
        keys, values, _sample = data
        drawn = SplitCostModel(make_adapter(kind, keys, values, m1))
        adapter = make_adapter(kind, keys, values, m1)
        given = SplitCostModel(adapter, reprofile_on_init=False)
        given.reprofile(adapter.key_sample(23, 2048))
        assert drawn.cpu_level_ns == given.cpu_level_ns
        assert drawn.leaf_ns == given.leaf_ns
        assert drawn.gpu_level_ns_by_kernel == given.gpu_level_ns_by_kernel


class TestPlanningIsPure:
    @pytest.mark.parametrize("kind", ["implicit", "regular"])
    def test_plan_leaves_device_counters_unchanged(self, data, m2, kind):
        keys, values, sample = data
        tree = make_adapter(kind, keys, values, m2)
        launches = tree.device.kernel_launches
        counters = dataclasses.asdict(tree.device.memory.counters)
        HybridFramework(tree, m2, sample=sample).plan()
        assert tree.device.kernel_launches == launches
        assert dataclasses.asdict(tree.device.memory.counters) == counters

    @pytest.mark.parametrize("kind", ["implicit", "css"])
    def test_balanced_ratio_is_a_sampled_point(self, m2, kind):
        # Algorithm 1 samples R on the 1/16 grid; committing the binary
        # search's unsampled last step would land on an odd 1/32
        keys, values, queries = dataset_and_queries(1 << 14)
        fw = HybridFramework(make_adapter(kind, keys, values, m2), m2,
                             sample=queries)
        plan = fw.plan()
        assert plan.mode == "balanced"
        assert (plan.ratio * 16).is_integer()


class TestCssAdapterPricing:
    """The adapter prices its leaf stage the way it walks it: each
    code's run of the sorted data array."""

    def test_leaf_stage_touches_each_codes_run(self, m1):
        keys, values = generate_dataset(4096, seed=5)
        tree = CssTree(keys, values, mem=MemorySystem.from_spec(m1.cpu))
        adapter = CssTreeAdapter(tree, m1)
        assert adapter.bucket_costs().t4 > 0
        sample = adapter.key_sample(1, 512)
        leaf = adapter.profile_leaf_stage(sample)
        # a scalar lookup touches one directory line per level, then
        # its run's lines
        tree.mem.reset_counters()
        for key in sample.tolist():
            tree.lookup(key)
        per_lookup = tree.mem.counters.line_accesses / len(sample)
        assert leaf.lines == pytest.approx(per_lookup - tree.height)

    def test_a_tree_without_memory_prices_in_the_adapters(self, m1):
        keys, values = generate_dataset(4096, seed=5)
        bare = CssTreeAdapter(CssTree(keys, values), m1)
        built = CssTreeAdapter(
            CssTree(keys, values, mem=MemorySystem.from_spec(m1.cpu)), m1)
        assert bare.cpu_tree.mem is bare.mem
        sample = built.key_sample(2, 1024)
        assert bare.cost_profile(sample) == built.cost_profile(sample)
        np.testing.assert_array_equal(bare.lookup_batch(sample),
                                      built.lookup_batch(sample))
