"""Tests of the resilience layer: retries, repair, degradation and
recovery — faults may cost time, never correctness."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.resilience import (
    CircuitBreaker,
    GpuUnavailable,
    ResilienceConfig,
    ResilienceStats,
    ResilientHBPlusTree,
)
from repro.core.update import AsyncBatchUpdater
from repro.faults import FaultInjector, FaultPlan
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset

N = 1 << 12


@pytest.fixture(scope="module")
def dataset():
    keys, values = generate_dataset(N, seed=3)
    lut = {int(k): int(v) for k, v in zip(keys, values)}
    return keys, values, lut


def make_resilient(dataset, rate, seed=9, config=None):
    keys, values, _lut = dataset
    tree = HBPlusTree(keys, values, machine=machine_m1())
    injector = FaultInjector(FaultPlan.uniform(rate, seed=seed))
    return ResilientHBPlusTree(tree, injector=injector, config=config)


def lookup(r, key):
    """One key through the policy's engine; None when not found."""
    spec = r.tree.spec
    val = int(r.engine.lookup_batch(np.asarray([key], dtype=spec.dtype))[0])
    return None if val == spec.max_value else val


def check_batches(r, dataset, batches=6, size=1024, seed=5):
    keys, _values, lut = dataset
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        q = rng.choice(keys, size=size)
        out = r.engine.lookup_batch(q)
        expected = np.asarray([lut[int(k)] for k in q], dtype=out.dtype)
        np.testing.assert_array_equal(out, expected)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        br = CircuitBreaker(threshold=3, probe_interval=4)
        assert not br.record_failure()
        assert not br.record_failure()
        assert br.record_failure()  # third consecutive opens it
        assert br.open

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=2, probe_interval=4)
        br.record_failure()
        br.record_success()
        assert not br.record_failure()
        assert not br.open

    def test_trip_opens_directly(self):
        br = CircuitBreaker(threshold=3, probe_interval=4)
        br.trip()
        assert br.open

    def test_probe_cadence(self):
        br = CircuitBreaker(threshold=1, probe_interval=3)
        br.record_failure()
        due = [br.note_degraded_batch() for _ in range(6)]
        assert due == [False, False, True, False, False, True]

    def test_close_resets(self):
        br = CircuitBreaker(threshold=1, probe_interval=3)
        br.record_failure()
        br.close()
        assert not br.open
        assert br.consecutive_failures == 0

    def test_validates_args(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0, probe_interval=1)


class TestBackoff:
    def test_exponential_with_bounded_jitter(self):
        cfg = ResilienceConfig()
        for attempt in range(4):
            base = cfg.backoff_base_ns * cfg.backoff_multiplier ** attempt
            lo = cfg.backoff_ns(attempt, 0.0)
            hi = cfg.backoff_ns(attempt, 1.0)
            assert lo == pytest.approx(base)
            assert hi == pytest.approx(base * (1 + cfg.backoff_jitter))


class TestResilientLookups:
    def test_no_faults_serves_hybrid(self, dataset):
        r = make_resilient(dataset, 0.0)
        check_batches(r, dataset)
        assert r.stats.served_cpu == 0
        assert r.stats.served_hybrid > 0
        assert r.stats.penalty_ns == 0.0
        assert not r.degraded

    def test_moderate_faults_correct_with_retries(self, dataset):
        r = make_resilient(dataset, 0.3)
        check_batches(r, dataset, batches=8)
        s = r.stats
        assert s.transfer_retries + s.kernel_retries > 0
        assert s.penalty_ns > 0
        assert s.penalty_ns <= s.served_ns

    def test_total_gpu_failure_degrades_and_stays_correct(self, dataset):
        r = make_resilient(dataset, 1.0)
        check_batches(r, dataset, batches=8)
        assert r.degraded
        assert r.stats.degradations >= 1
        assert r.stats.served_cpu > 0
        # once open, hybrid attempts stop (except probes)
        assert r.stats.served_hybrid == 0

    def test_lookup_single_key(self, dataset):
        keys, _values, lut = dataset
        r = make_resilient(dataset, 1.0)
        k = int(keys[17])
        assert lookup(r, k) == lut[k]
        assert lookup(r, int(keys.max()) + 3) is None

    def test_deterministic_replay(self, dataset):
        def run():
            r = make_resilient(dataset, 0.35)
            check_batches(r, dataset, batches=6)
            return r.stats.snapshot(), r.tree.injector.schedule()

        stats_a, sched_a = run()
        stats_b, sched_b = run()
        assert stats_a == stats_b
        assert sched_a == sched_b


class TestEngineBacked:
    def test_engine_backed_resilient_tree_stays_correct(self, dataset):
        keys, values, lut = dataset
        tree = HBPlusTree(keys, values, machine=machine_m1())
        injector = FaultInjector(FaultPlan.uniform(0.08, seed=31))
        engine = BatchingEngine(tree, bucket_size=256)
        resilient = ResilientHBPlusTree(
            tree, injector=injector,
            config=ResilienceConfig(breaker_threshold=2, probe_interval=4),
            engine=engine,
        )
        rng = np.random.default_rng(17)
        for _ in range(8):
            q = rng.choice(keys, size=512)
            out = resilient.engine.lookup_batch(q)
            expected = np.asarray([lut[int(k)] for k in q], dtype=out.dtype)
            np.testing.assert_array_equal(out, expected)
        assert resilient.engine is engine
        assert engine.stats.buckets > 0

    def test_engine_must_wrap_same_tree(self, dataset):
        keys, values, _lut = dataset
        tree_a = HBPlusTree(keys, values, machine=machine_m1())
        tree_b = HBPlusTree(keys, values, machine=machine_m1())
        with pytest.raises(ValueError, match="same"):
            ResilientHBPlusTree(tree_a, engine=BatchingEngine(tree_b))


class TestMirrorRepair:
    def test_bitflip_detected_and_repaired(self, dataset):
        plan = FaultPlan(bitflip=1.0, seed=7)
        keys, values, _lut = dataset
        tree = HBPlusTree(keys, values, machine=machine_m1())
        r = ResilientHBPlusTree(tree, injector=FaultInjector(plan))
        # full buckets amortize the repair cost, so service stays hybrid
        check_batches(r, dataset, batches=4, size=r.bucket_size)
        assert r.stats.checksum_failures == 4
        assert r.stats.repaired_nodes >= 4
        # repaired mirror matches the CPU tree's expected image
        np.testing.assert_array_equal(
            tree.iseg_buffer.array.reshape(-1), tree.pack_i_segment()
        )

    def test_repair_is_targeted_not_full_refresh(self, dataset):
        plan = FaultPlan(bitflip=1.0, seed=7)
        keys, values, _lut = dataset
        tree = HBPlusTree(keys, values, machine=machine_m1())
        r = ResilientHBPlusTree(tree, injector=FaultInjector(plan))
        check_batches(r, dataset, batches=4, size=r.bucket_size)
        assert r.stats.mirror_refreshes == 0

    def test_interrupted_sync_marks_stale_then_repairs(self, dataset):
        keys, values, lut = dataset
        tree = HBPlusTree(keys, values, machine=machine_m1())
        injector = FaultInjector(FaultPlan(sync_interrupt=1.0, seed=2))
        r = ResilientHBPlusTree(tree, injector=injector)
        new_keys = [int(keys[0]) + 5, int(keys[1]) + 7]
        r.serve_updates(AsyncBatchUpdater(tree).apply, new_keys, [111, 222])
        lut = dict(lut)
        lut[new_keys[0]], lut[new_keys[1]] = 111, 222
        assert lookup(r, new_keys[0]) == 111
        assert lookup(r, new_keys[1]) == 222

    def test_sync_method_faults_counted(self, dataset):
        keys, values, _lut = dataset
        tree = HBPlusTree(keys, values, machine=machine_m1())
        injector = FaultInjector(
            FaultPlan(sync_interrupt=0.5, transfer_fail=0.5, seed=2)
        )
        r = ResilientHBPlusTree(tree, injector=injector)
        upserts = [int(k) for k in keys[:32]]
        r.engine.apply_updates(upserts, list(range(32)))
        for k, v in zip(upserts, range(32)):
            assert lookup(r, k) == v


class TestDegradationEconomics:
    def test_intermittent_faults_never_serve_below_cpu_floor(self, dataset):
        """The economic breaker keeps a limping hybrid from underbidding
        the CPU-only path it could degrade to."""
        r = make_resilient(dataset, 0.5)
        check_batches(r, dataset, batches=12, size=r.bucket_size)
        s = r.stats
        floor_qps = 1e9 / r.cpu_only_query_ns
        # transition transients and probe slots cost something, but the
        # steady state must track the CPU-only floor, not fall under it
        assert s.throughput_qps() >= 0.6 * floor_qps

    def test_economic_degradation_counted(self, dataset):
        r = make_resilient(dataset, 0.5)
        check_batches(r, dataset, batches=10, size=r.bucket_size)
        assert r.stats.degradations >= 1


class TestRecovery:
    def test_recovers_after_faults_clear(self, dataset):
        config = ResilienceConfig(probe_interval=2)
        r = make_resilient(dataset, 1.0, config=config)
        check_batches(r, dataset, batches=4)
        assert r.degraded
        r.tree.injector.disable()
        check_batches(r, dataset, batches=8)
        assert not r.degraded
        assert r.stats.recoveries == 1
        assert r.stats.served_hybrid > 0

    def test_failed_probe_charged_flat_budget(self, dataset):
        config = ResilienceConfig(probe_interval=1)
        r = make_resilient(dataset, 1.0, config=config)
        check_batches(r, dataset, batches=4)
        pen0 = r.stats.penalty_ns
        probes0 = r.stats.probes
        check_batches(r, dataset, batches=2)
        probes = r.stats.probes - probes0
        assert probes >= 1
        assert r.stats.penalty_ns - pen0 == pytest.approx(
            probes * config.probe_budget_ns
        )


class TestStats:
    def test_throughput_includes_penalties(self, dataset):
        clean = make_resilient(dataset, 0.0)
        check_batches(clean, dataset, batches=6, size=clean.bucket_size)
        faulty = make_resilient(dataset, 0.3)
        check_batches(faulty, dataset, batches=6, size=faulty.bucket_size)
        assert faulty.stats.throughput_qps() < clean.stats.throughput_qps()

    def test_empty_stats(self):
        s = ResilienceStats()
        assert s.throughput_qps() == 0.0
        assert s.served_queries == 0

    def test_repr_shows_mode(self, dataset):
        r = make_resilient(dataset, 1.0)
        check_batches(r, dataset, batches=6)
        assert "degraded" in repr(r)


class TestFaultProperty:
    """Property: no fault plan can make lookups return wrong answers."""

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_fault_plans_never_wrong(self, rates, seed):
        keys, values = generate_dataset(512, seed=8)
        lut = {int(k): int(v) for k, v in zip(keys, values)}
        tree = HBPlusTree(keys, values, machine=machine_m1())
        plan = FaultPlan(
            seed=seed,
            transfer_fail=rates[0],
            transfer_timeout=rates[1],
            kernel_fail=rates[2],
            kernel_hang=rates[3],
            bitflip=rates[4],
            sync_interrupt=rates[5],
        )
        r = ResilientHBPlusTree(tree, injector=FaultInjector(plan))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            q = rng.choice(keys, size=256)
            out = r.engine.lookup_batch(q)
            expected = np.asarray(
                [lut[int(k)] for k in q], dtype=out.dtype
            )
            np.testing.assert_array_equal(out, expected)


class TestEdgeInputs:
    def test_empty_batch_returns_empty(self, dataset):
        r = make_resilient(dataset, 0.5)
        out = r.engine.lookup_batch(np.asarray([], dtype=np.uint64))
        assert len(out) == 0
        assert r.stats.batches == 0

    def test_empty_tree_degrades_and_recovers(self):
        """The recovery probe of an empty tree searches zero keys."""
        none = np.zeros(0, dtype=np.uint64)
        tree = HBPlusTree(none, none, machine=machine_m1())
        injector = FaultInjector(FaultPlan.uniform(1.0, seed=9))
        r = ResilientHBPlusTree(tree, injector=injector,
                                config=ResilienceConfig(probe_interval=2))
        q = np.arange(1, 300, dtype=np.uint64)
        missing = np.full(len(q), tree.spec.max_value, dtype=np.uint64)
        for _ in range(4):
            np.testing.assert_array_equal(r.engine.lookup_batch(q), missing)
        assert r.degraded
        injector.plan = FaultPlan.none(seed=9)
        for _ in range(4):
            np.testing.assert_array_equal(r.engine.lookup_batch(q), missing)
            rows = r.engine.run_scans(q[:3], q[:3] + 9)
            assert [list(row) for row in rows] == [[], [], []]
        assert not r.degraded
        assert r.stats.recoveries == 1
        assert r.stats.probes >= 1
