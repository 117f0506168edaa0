"""Load balancing scheme (section 5.5, Algorithm 1, Fig 18)."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.platform.configs import machine_m2
from repro.workloads.generators import generate_dataset


@pytest.fixture(scope="module")
def data():
    return generate_dataset(4096, seed=17)


@pytest.fixture()
def balancer_m2(data, m2):
    keys, values = data
    tree = ImplicitHBPlusTree(keys, values, machine=m2)
    return LoadBalancer(tree)


class TestPerLevelCosts:
    def test_profiles_measured_per_level(self, balancer_m2):
        h = balancer_m2.tree.cpu_tree.height
        assert len(balancer_m2.cpu_level_ns) == h
        assert len(balancer_m2.gpu_level_ns) == h
        assert all(c > 0 for c in balancer_m2.cpu_level_ns)
        assert all(g > 0 for g in balancer_m2.gpu_level_ns)

    def test_top_levels_cheaper_on_cpu(self, balancer_m2):
        """Root and top levels are cache resident -> cheap; bottom
        levels miss (the rationale for giving the *top* to the CPU)."""
        costs = balancer_m2.cpu_level_ns
        assert costs[0] <= costs[-1]

    def test_leaf_cost_positive(self, balancer_m2):
        assert balancer_m2.leaf_ns > 0


class TestEquation4:
    def test_all_gpu_extreme(self, balancer_m2):
        # Equation 4 as printed: at D=0, R fraction of level-D work is
        # on the CPU, so R=0 is the true all-GPU extreme (leaf only)
        time_gpu, time_cpu = balancer_m2.sample_times(0, 0.0)
        assert time_gpu > 0
        expected_cpu = (
            16384 * balancer_m2.leaf_ns / balancer_m2.cpu_model.threads
        )
        assert time_cpu == pytest.approx(expected_cpu, rel=0.01)

    def test_deeper_split_shifts_work_to_cpu(self, balancer_m2):
        g0, c0 = balancer_m2.sample_times(0, 1.0)
        g2, c2 = balancer_m2.sample_times(2, 1.0)
        assert g2 < g0
        assert c2 > c0

    def test_ratio_interpolates(self, balancer_m2):
        g_lo, c_lo = balancer_m2.sample_times(1, 0.0)
        g_mid, c_mid = balancer_m2.sample_times(1, 0.5)
        g_hi, c_hi = balancer_m2.sample_times(1, 1.0)
        assert c_lo <= c_mid <= c_hi
        assert g_hi <= g_mid <= g_lo

    def test_balanced_cost_is_max(self, balancer_m2):
        g, c = balancer_m2.sample_times(1, 0.5)
        assert balancer_m2.balanced_cost_ns(1, 0.5) == max(g, c)


class TestDiscovery:
    def test_discovery_runs_algorithm1(self, balancer_m2):
        result = balancer_m2.discover()
        assert 0 <= result.depth <= balancer_m2.tree.cpu_tree.height
        assert 0.0 <= result.ratio <= 1.0
        # linear phase + exactly 4 binary-search steps
        assert result.sample_count >= 5

    def test_discovered_point_near_optimum(self, balancer_m2):
        """The discovered (D, R) should be within 15% of the exhaustive
        best over a dense grid."""
        result = balancer_m2.discover()
        found = balancer_m2.balanced_cost_ns(result.depth, result.ratio)
        h = balancer_m2.tree.cpu_tree.height
        best = min(
            balancer_m2.balanced_cost_ns(d, r / 16)
            for d in range(h + 1)
            for r in range(17)
        )
        assert found <= best * 1.15

    def test_discovery_on_gpu_strong_machine_keeps_gpu_loaded(self, data, m1):
        """On M1 (strong GPU) the discovery should park most work on
        the GPU (small D)."""
        keys, values = data
        tree = ImplicitHBPlusTree(keys, values, machine=m1)
        balancer = LoadBalancer(tree)
        result = balancer.discover()
        assert result.depth <= 2


class TestBalancedLookup:
    def test_results_match_plain_hybrid(self, balancer_m2, data):
        keys, values = data
        balancer_m2.discover()
        out = balancer_m2.lookup_batch(keys[:1024])
        assert np.array_equal(out, values[:1024])

    def test_results_for_various_splits(self, balancer_m2, data):
        keys, values = data
        h = balancer_m2.tree.cpu_tree.height
        for depth in range(h + 1):
            for ratio in (0.0, 0.3, 1.0):
                balancer_m2.depth = depth
                balancer_m2.ratio = ratio
                out = balancer_m2.lookup_batch(keys[:256])
                assert np.array_equal(out, values[:256]), (depth, ratio)

    def test_absent_keys(self, balancer_m2, data):
        keys, _values = data
        balancer_m2.discover()
        probe = np.asarray([int(keys.max()) + 9], dtype=np.uint64)
        out = balancer_m2.lookup_batch(probe)
        assert out[0] == balancer_m2.tree.spec.max_value

    def test_bucket_costs_reflect_split(self, balancer_m2):
        balancer_m2.discover()
        costs = balancer_m2.bucket_costs()
        g, c = balancer_m2.sample_times(
            balancer_m2.depth, balancer_m2.ratio
        )
        assert costs.t2 == pytest.approx(g)
        assert costs.t4 == pytest.approx(c)


class TestFig18Shape:
    def test_balancing_helps_on_weak_gpu(self, balancer_m2):
        """Section 6.5: on M2 the balanced split beats the all-GPU
        split."""
        plain = balancer_m2.balanced_cost_ns(0, 1.0)
        balancer_m2.discover()
        balanced = balancer_m2.balanced_cost_ns(
            balancer_m2.depth, balancer_m2.ratio
        )
        assert balanced < plain


class TestAllCpuSplitCosts:
    """D == h means no kernel launch, no PCIe — cost model included."""

    def test_depth_h_charges_no_gpu_time(self, balancer_m2):
        h = balancer_m2.height
        time_gpu, time_cpu = balancer_m2.sample_times(h, 1.0)
        assert time_gpu == 0.0
        assert time_cpu > 0.0

    def test_depth_h_minus_1_full_ratio_is_all_cpu(self, balancer_m2):
        """R == 1 at D == h-1 sends the last inner level to the CPU
        too; the GPU has nothing left."""
        h = balancer_m2.height
        time_gpu, _ = balancer_m2.sample_times(h - 1, 1.0)
        assert time_gpu == 0.0
        assert not balancer_m2.split_serves_gpu(h - 1, 1.0)

    def test_gpu_serving_split_pays_kernel_init(self, balancer_m2):
        time_gpu, _ = balancer_m2.sample_times(0, 0.0)
        assert time_gpu >= balancer_m2.machine.gpu.kernel_init_ns

    def test_all_cpu_bucket_costs_skip_pcie(self, balancer_m2):
        balancer_m2.depth = balancer_m2.height
        balancer_m2.ratio = 1.0
        costs = balancer_m2.bucket_costs()
        assert costs.t1 == 0.0
        assert costs.t2 == 0.0
        assert costs.t3 == 0.0
        assert costs.t4 > 0.0


class TestDiscoveryCommitsEvaluatedPoint:
    """Algorithm 1's final R adjustment is never itself sampled; the
    committed (D, R) must be a measured point, not an extrapolation."""

    def test_committed_point_was_sampled(self, balancer_m2):
        result = balancer_m2.discover()
        sampled = {(d, r) for d, r, _g, _c in result.samples}
        assert (result.depth, result.ratio) in sampled

    def test_cost_is_minimum_over_samples(self, balancer_m2):
        result = balancer_m2.discover()
        best = min(max(g, c) for _d, _r, g, c in result.samples)
        assert result.cost_ns == best
        assert result.cost_ns == pytest.approx(
            balancer_m2.balanced_cost_ns(result.depth, result.ratio)
        )


class TestReprofileSampling:
    def test_default_sample_is_without_replacement(self, data, m2,
                                                   monkeypatch):
        """Sampling stored keys *with* replacement skews per-level miss
        rates on small trees; every profiled key must be distinct."""
        keys, values = data
        tree = ImplicitHBPlusTree(keys, values, machine=m2)
        captured = {}
        original = ImplicitHBPlusTree.cost_profile

        def capture(self, sample):
            captured["sample"] = np.asarray(sample)
            return original(self, sample)

        monkeypatch.setattr(ImplicitHBPlusTree, "cost_profile", capture)
        LoadBalancer(tree)
        sample = captured["sample"]
        assert len(sample) == min(2048, len(keys))
        assert len(np.unique(sample)) == len(sample)

    def test_reprofile_accepts_live_sample(self, balancer_m2, data):
        keys, _values = data
        balancer_m2.reprofile(keys[:512])
        assert len(balancer_m2.cpu_level_ns) == balancer_m2.height
        with pytest.raises(ValueError):
            balancer_m2.reprofile(np.empty(0, dtype=np.uint64))


@functools.lru_cache(maxsize=1)
def _grid_setup():
    keys, values = generate_dataset(2048, seed=17)
    tree = ImplicitHBPlusTree(keys, values, machine=machine_m2())
    balancer = LoadBalancer(tree)
    return keys, values, tree, balancer


class TestSplitGridBitIdentity:
    """A (D, R) split moves which processor walks which level, never
    what the walk returns — property-tested over the whole grid."""

    @given(
        depth_frac=st.integers(0, 6),
        ratio=st.sampled_from([0.0, 0.5, 1.0]),
        picks=st.lists(st.integers(0, 2047), min_size=1, max_size=64),
        offset=st.sampled_from([0, 1]),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_unbalanced_tree(self, depth_frac, ratio, picks,
                                     offset):
        keys, _values, tree, balancer = _grid_setup()
        h = tree.cpu_tree.height
        balancer.depth = min(depth_frac, h)  # includes D=0 and D=h
        balancer.ratio = ratio
        # offset=1 shifts every query off a stored key (misses included)
        queries = keys[np.asarray(picks)] + np.uint64(offset)
        out = balancer.lookup_batch(queries)
        expected = tree.lookup_batch(queries)
        assert np.array_equal(out, expected)
