"""Online adaptive load balancing: windows, hysteresis, determinism,
engine integration and the resilience handshake (DESIGN.md §11)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    RegularModeBalancer,
    StaticSplit,
)
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import (
    DiscoveryResult,
    SplitCostModel,
    split_levels,
)
from repro.core.resilience import ResilienceConfig, ResilientHBPlusTree
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability
from repro.platform.configs import machine_m1, machine_m2
from repro.workloads.generators import generate_dataset
from repro.workloads.trace import synthesize_drift_lookups


@pytest.fixture(scope="module")
def data():
    return generate_dataset(1 << 13, seed=41)


@pytest.fixture()
def itree(data, m1):
    keys, values = data
    return ImplicitHBPlusTree(keys, values, machine=m1)


#: a drift config that moves eagerly — every window may rebalance
EAGER = AdaptiveConfig(window_buckets=2, sample_size=512,
                       hysteresis_gain=0.0, confirm_windows=1)


class TestSplitLevels:
    def test_zero_split_is_all_gpu(self):
        assert np.array_equal(split_levels(8, 0, 0.0, 5), np.zeros(8))

    def test_full_split_is_all_cpu(self):
        assert np.array_equal(split_levels(8, 5, 1.0, 5), np.full(8, 5))

    def test_ratio_cuts_the_bucket(self):
        levels = split_levels(8, 2, 0.5, 5)
        assert np.array_equal(levels[:4], np.full(4, 3))
        assert np.array_equal(levels[4:], np.full(4, 2))

    def test_depth_clamped_to_height(self):
        assert split_levels(4, 9, 1.0, 5).max() == 5


class ScriptedBalancer(SplitCostModel):
    """Scripted discover() outcomes, for driving the hysteresis logic
    without a tree: each entry is ((depth, ratio), candidate_cost,
    current_cost)."""

    tree = None

    def __init__(self, height, script):
        self._height = height
        self._script = list(script)
        self._calls = 0
        self._current = 1.0
        self.depth, self.ratio = 0, 0.0
        self.profiled = []

    @property
    def height(self):
        return self._height

    def reprofile(self, sample=None, sample_size=2048):
        self.profiled.append(sample)

    def discover(self, bucket_size=None):
        split, cost, current = self._script[
            min(self._calls, len(self._script) - 1)
        ]
        self._calls += 1
        self._current = current
        self.depth, self.ratio = split
        return DiscoveryResult(depth=split[0], ratio=split[1],
                               samples=[], cost_ns=cost)

    def balanced_cost_ns(self, depth, ratio, bucket_size=None):
        return self._current


def feed_windows(controller, n_windows, bucket_queries=256):
    """Push enough buckets to close ``n_windows`` windows."""
    cfg = controller.config
    rng = np.random.default_rng(7)
    for _ in range(n_windows * cfg.window_buckets):
        controller.note_bucket(
            rng.integers(0, 1 << 20, size=bucket_queries)
        )


class TestHysteresis:
    def test_insufficient_gain_never_moves(self):
        bal = ScriptedBalancer(4, [((2, 0.5), 96.0, 100.0)])  # 4% gain
        c = AdaptiveController(
            bal, config=AdaptiveConfig(window_buckets=2,
                                       hysteresis_gain=0.05,
                                       confirm_windows=1),
            discover_on_init=False,
        )
        feed_windows(c, 4)
        assert c.split() == (0, 0.0)
        assert c.stats.rebalances == 0
        assert c.stats.proposals == 0

    def test_candidate_must_confirm_across_windows(self):
        bal = ScriptedBalancer(4, [((2, 0.5), 50.0, 100.0)])  # 50% gain
        c = AdaptiveController(
            bal, config=AdaptiveConfig(window_buckets=2,
                                       hysteresis_gain=0.05,
                                       confirm_windows=3),
            discover_on_init=False,
        )
        feed_windows(c, 2)
        assert c.split() == (0, 0.0)  # two confirmations are not three
        feed_windows(c, 1)
        assert c.split() == (2, 0.5)
        assert c.stats.rebalances == 1

    def test_changing_candidate_resets_the_streak(self):
        script = [
            ((2, 0.5), 50.0, 100.0),
            ((3, 0.5), 50.0, 100.0),  # different candidate: streak resets
            ((3, 0.5), 50.0, 100.0),
        ]
        bal = ScriptedBalancer(4, script)
        c = AdaptiveController(
            bal, config=AdaptiveConfig(window_buckets=2,
                                       hysteresis_gain=0.05,
                                       confirm_windows=2),
            discover_on_init=False,
        )
        feed_windows(c, 2)
        assert c.split() == (0, 0.0)
        feed_windows(c, 1)  # second consecutive win for (3, 0.5)
        assert c.split() == (3, 0.5)

    def test_applied_split_restored_on_balancer_after_evaluation(self):
        bal = ScriptedBalancer(4, [((2, 0.5), 96.0, 100.0)])
        c = AdaptiveController(
            bal, config=AdaptiveConfig(window_buckets=2,
                                       hysteresis_gain=0.05),
            discover_on_init=False,
        )
        feed_windows(c, 1)
        # discover() moved the balancer to the candidate; the controller
        # must restore the split actually in force
        assert (bal.depth, bal.ratio) == c.split() == (0, 0.0)

    def test_small_windows_are_skipped(self):
        bal = ScriptedBalancer(4, [((2, 0.5), 50.0, 100.0)])
        c = AdaptiveController(
            bal, config=AdaptiveConfig(window_buckets=2,
                                       min_window_queries=64,
                                       confirm_windows=1),
            discover_on_init=False,
        )
        for _ in range(4):
            c.note_bucket(np.arange(8))  # 16 queries/window < 64
        assert c.stats.windows == 2
        assert c.stats.evaluations == 0
        assert c.split() == (0, 0.0)


class TestForcedCpuOnly:
    def test_force_pins_split_to_cpu_only(self):
        bal = ScriptedBalancer(4, [((0, 0.0), 50.0, 100.0)])
        c = AdaptiveController(bal, config=EAGER, discover_on_init=False)
        c.force_cpu_only("degrade")
        assert c.split() == (4, 1.0)
        assert c.cpu_only
        # windows keep closing but never move the pinned split
        feed_windows(c, 3)
        assert c.split() == (4, 1.0)
        assert c.stats.evaluations == 0
        assert c.stats.windows == 3

    def test_rediscover_unpins_and_moves_on(self):
        bal = ScriptedBalancer(4, [((1, 0.5), 50.0, 100.0)])
        c = AdaptiveController(bal, config=EAGER, discover_on_init=False)
        c.force_cpu_only()
        feed_windows(c, 1)  # traffic observed while degraded
        result = c.rediscover()
        assert (result.depth, result.ratio) == (1, 0.5)
        assert c.split() == (1, 0.5)
        assert not c.cpu_only
        # rediscovery profiled the freshest degraded-era window
        assert bal.profiled[-1] is not None

    def test_rebalance_events_and_counters(self):
        obs = Observability()
        events = []
        obs.hooks.subscribe("rebalance", lambda **p: events.append(p))
        bal = ScriptedBalancer(4, [((2, 0.25), 50.0, 100.0)])
        c = AdaptiveController(bal, config=EAGER, obs=obs,
                               discover_on_init=False)
        feed_windows(c, 1)
        assert events and events[-1]["reason"] == "drift"
        assert events[-1]["moved"] is True
        assert events[-1]["depth"] == 2
        snap = obs.metrics.snapshot()
        assert snap["live.rebalance.windows"] == 1
        assert snap["live.rebalance.applied{reason=drift}"] == 1
        assert snap["live.rebalance.depth"] == 2.0


class TestForTree:
    def test_implicit_tree_gets_full_split_space(self, itree):
        c = AdaptiveController.for_tree(itree, bucket_size=512)
        from repro.core.load_balance import LoadBalancer
        assert isinstance(c.balancer, LoadBalancer)
        assert c.balancer.sort_batches  # profiles the engine's stream

    def test_regular_tree_gets_mode_balancer(self, data, m2):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m2)
        c = AdaptiveController.for_tree(tree, bucket_size=512)
        assert isinstance(c.balancer, RegularModeBalancer)
        # the regular tree has no mid-tree resume: endpoints only
        h = tree.cpu_tree.height
        assert c.split() in ((0, 0.0), (h, 1.0))

    def test_regular_mode_balancer_on_weak_gpu_goes_cpu_only(self, data, m2):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m2)
        bal = RegularModeBalancer(tree, bucket_size=512)
        result = bal.discover()
        # M2's GPU loses to the CPU tree (the paper's Fig 18 setting)
        assert (result.depth, result.ratio) == (tree.cpu_tree.height, 1.0)


class TestDeterminism:
    def test_same_trace_same_schedule(self, data, m1):
        keys, values = data
        trace, _phases = synthesize_drift_lookups(
            keys, queries_per_phase=2048, seed=29
        )

        def run():
            tree = ImplicitHBPlusTree(keys, values, machine=m1)
            obs = Observability()
            events = []
            obs.hooks.subscribe(
                "rebalance", lambda **p: events.append(tuple(sorted(
                    (k, v) for k, v in p.items()
                )))
            )
            c = AdaptiveController.for_tree(
                tree, config=EAGER, bucket_size=512, obs=obs
            )
            engine = BatchingEngine(tree, bucket_size=512, balancer=c)
            out = engine.lookup_batch(trace.keys)
            return out, events, c.stats.snapshot()

        out_a, events_a, stats_a = run()
        out_b, events_b, stats_b = run()
        assert np.array_equal(out_a, out_b)
        assert events_a == events_b
        assert stats_a == stats_b


class TestEngineIntegration:
    def test_engines_reject_balancer_without_split_descent(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        with pytest.raises(ValueError):
            BatchingEngine(tree, balancer=StaticSplit())

    def test_static_zero_split_matches_unbalanced(self, itree, data):
        keys, _values = data
        queries = keys[::3]
        plain = BatchingEngine(itree, bucket_size=512)
        ref = plain.lookup_batch(queries)
        static = BatchingEngine(itree, bucket_size=512,
                                balancer=StaticSplit(0, 0.0))
        assert np.array_equal(static.lookup_batch(queries), ref)

    def test_adaptive_batching_bit_identical_under_drift(self, itree, data):
        keys, _values = data
        trace, _phases = synthesize_drift_lookups(
            keys, queries_per_phase=2048, seed=29
        )
        plain = BatchingEngine(itree, bucket_size=512)
        ref = plain.lookup_batch(trace.keys)
        c = AdaptiveController.for_tree(itree, config=EAGER,
                                        bucket_size=512)
        engine = BatchingEngine(itree, bucket_size=512, balancer=c)
        out = engine.lookup_batch(trace.keys)
        assert np.array_equal(out, ref)
        assert c.stats.windows > 0

    def test_scan_bucket_enters_the_window_once(self, itree, data):
        keys, _values = data
        c = AdaptiveController.for_tree(itree, config=EAGER,
                                        bucket_size=512)
        engine = BatchingEngine(itree, bucket_size=512, balancer=c)
        los = keys[100:140]
        his = keys[120:160]
        scans = engine.run_scans(los, his)
        assert c.stats.buckets == 1
        assert c.stats.queries == len(los)
        assert c.stats.scans == len(los)
        assert c.stats.scan_tuples == sum(len(s) for s in scans)
        assert c.stats.windows == 0
        # the second scan bucket closes the two-bucket window, which
        # holds scans only (and enough keys to be evaluated)
        engine.run_scans(los, his)
        assert c.stats.buckets == 2 and c.stats.windows == 1
        assert c.balancer.scan_share == 1.0

    def test_all_cpu_split_skips_kernel_launches(self, itree, data):
        keys, _values = data
        h = itree.cpu_tree.height
        engine = BatchingEngine(itree, bucket_size=512,
                                balancer=StaticSplit(h, 1.0))
        before = itree.device.kernel_launches
        out = engine.lookup_batch(keys[:2048])
        assert itree.device.kernel_launches == before
        ref = BatchingEngine(itree, bucket_size=512)
        assert np.array_equal(out, ref.lookup_batch(keys[:2048]))

    @given(depth=st.integers(0, 6), ratio=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture,
              ])
    def test_any_static_split_bit_identical(self, itree, data, depth,
                                            ratio):
        keys, _values = data
        queries = keys[1::5]
        h = itree.cpu_tree.height
        plain = BatchingEngine(itree, bucket_size=1024)
        ref = plain.lookup_batch(queries)
        engine = BatchingEngine(
            itree, bucket_size=1024,
            balancer=StaticSplit(min(depth, h), ratio),
        )
        assert np.array_equal(engine.lookup_batch(queries), ref)


class TestResilienceHandshake:
    def _make(self, data, rate, machine, seed=9, config=None,
              allowed_kernels=None):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=machine)
        # the machine's full bucket size: on M1 it amortizes kernel
        # init, so the mode balancer keeps the GPU loaded when healthy
        adaptive = AdaptiveController.for_tree(
            tree, config=EAGER, allowed_kernels=allowed_kernels
        )
        injector = FaultInjector(FaultPlan.uniform(rate, seed=seed))
        r = ResilientHBPlusTree(tree, injector=injector, config=config,
                                adaptive=adaptive)
        return r, adaptive

    def test_adaptive_must_wrap_the_same_tree(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        other = HBPlusTree(keys, values, machine=m1)
        adaptive = AdaptiveController.for_tree(other)
        with pytest.raises(ValueError):
            ResilientHBPlusTree(tree, adaptive=adaptive)

    def test_degradation_forces_cpu_only_split(self, data, m1):
        r, adaptive = self._make(data, 1.0, m1)
        keys, values = data
        lut = {int(k): int(v) for k, v in zip(keys, values)}
        rng = np.random.default_rng(5)
        for _ in range(6):
            q = rng.choice(keys, size=512)
            out = r.engine.lookup_batch(q)
            expected = np.asarray([lut[int(k)] for k in q], dtype=out.dtype)
            np.testing.assert_array_equal(out, expected)
        assert r.degraded
        assert adaptive.cpu_only
        assert adaptive.split() == (adaptive.height, 1.0)
        assert adaptive.stats.forced_cpu_only >= 1

    def test_recovery_rediscovers_not_restores(self, data, m1):
        r, adaptive = self._make(
            data, 1.0, m1, config=ResilienceConfig(probe_interval=2)
        )
        keys, values = data
        lut = {int(k): int(v) for k, v in zip(keys, values)}
        rng = np.random.default_rng(5)
        for _ in range(6):
            r.engine.lookup_batch(rng.choice(keys, size=512))
        assert r.degraded and adaptive.cpu_only
        r.tree.injector.disable()
        for _ in range(8):
            q = rng.choice(keys, size=512)
            out = r.engine.lookup_batch(q)
            expected = np.asarray([lut[int(k)] for k in q], dtype=out.dtype)
            np.testing.assert_array_equal(out, expected)
        assert not r.degraded
        assert r.stats.recoveries >= 1
        assert adaptive.stats.rediscoveries >= 1
        # on M1 the re-discovered split serves the GPU again
        assert not adaptive.cpu_only

    def test_adaptive_cpu_only_trips_breaker_economically(self, data, m2):
        """On M2 the per-query kernel loses every level to the CPU, so
        with the kernel space pinned to it the mode balancer picks
        cpu-only at construction; the wrapper must degrade immediately
        without burning GPU retries."""
        r, adaptive = self._make(
            data, 0.0, m2, allowed_kernels=("per_query",)
        )
        assert adaptive.cpu_only
        assert r.degraded
        assert r.stats.economic_degradations >= 1
        keys, values = data
        out = r.engine.lookup_batch(keys[:512])
        np.testing.assert_array_equal(out, values[:512])
        assert r.stats.served_cpu > 0

    def test_frontier_kernel_keeps_m2_gpu_viable(self, data, m2):
        """The level-wise frontier kernel cuts M2's modeled GPU cost
        enough that discovery keeps the hybrid mode — the breaker must
        NOT trip economically, and the committed kernel must reach the
        tree's dispatch default."""
        r, adaptive = self._make(data, 0.0, m2)
        assert adaptive.kernel == "frontier"
        assert not adaptive.cpu_only
        assert not r.degraded
        assert r.tree.kernel == "frontier"
        keys, values = data
        out = r.engine.lookup_batch(keys[:512])
        np.testing.assert_array_equal(out, values[:512])
