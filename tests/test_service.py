"""The sharded multi-tenant index service."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.batching import BatchingEngine
from repro.core.update import SyncUpdater
from repro.faults import FaultInjector, FaultPlan
from repro.lifecycle import SnapshotManager, capture_payload
from repro.lifecycle.bulkload import bulk_load
from repro.obs import MetricsRegistry, Observability, publish_service
from repro.service import (
    AdmissionPolicy,
    HashRouter,
    IndexService,
    QuotaConfig,
    QuotaExceeded,
    RangeRouter,
    ServiceConfig,
    Shard,
    ShardOverloaded,
    group_by_shard,
)
from repro.service.admission import ShardQueue
from repro.service.service import LatencyRecorder
from repro.service.shard import shard_fault_plan


@pytest.fixture(scope="module")
def data():
    from repro.workloads.generators import generate_dataset

    keys, values = generate_dataset(2048, key_bits=64, seed=13)
    order = np.argsort(keys)
    return keys[order], values[order]


@pytest.fixture(scope="module")
def baseline(data, m1):
    keys, values = data
    tree = bulk_load("hb-regular", keys, values, machine=m1)
    return BatchingEngine(tree)


def _mixed_queries(rng, keys, n):
    hits = rng.choice(keys, n)
    misses = rng.integers(0, np.iinfo(np.uint64).max, n // 4,
                          dtype=np.uint64)
    return np.concatenate([hits, misses])


def _answers(ref, q):
    """What a sorted map ``ref`` answers; the sentinel marks a miss."""
    miss = int(np.iinfo(np.uint64).max)
    return np.array([ref.get(int(k), miss) for k in q.tolist()],
                    dtype=np.uint64)


class TestEmptyRegularShards:
    """Topology changes over emptied hb-regular shards, under a fault
    drill, a mode controller, or neither: the new shards calibrate and
    profile an empty tree without failing."""

    @pytest.mark.parametrize("policy", ["drill", "adaptive", "plain"])
    @pytest.mark.parametrize("op", ["merge", "split"])
    def test_topology_change_over_empty_shards(self, data, m1, policy, op):
        keys, values = data
        extra = {
            "drill": {"fault_plan": FaultPlan(seed=3, kernel_fail=0.05)},
            "adaptive": {"adaptive": True},
            "plain": {},
        }[policy]
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1, **extra))
        first = int(svc.shards[0].contents()[0][0])
        none = np.zeros(0, dtype=np.uint64)
        svc.apply_updates(none, none, keys)
        ref = {}
        rng = np.random.default_rng(17)
        q = _mixed_queries(rng, keys, 200)
        assert np.array_equal(svc.lookup_batch(q), _answers(ref, q))
        if op == "merge":
            svc.merge_shards(0)
        else:
            svc.split_shard(0, cut=first)
        assert np.array_equal(svc.lookup_batch(q), _answers(ref, q))
        new = rng.choice(keys, 300, replace=False)
        svc.apply_updates(new, new + np.uint64(1), none)
        ref.update(zip(new.tolist(), (new + np.uint64(1)).tolist()))
        assert np.array_equal(svc.lookup_batch(q), _answers(ref, q))


class TestRangeRouter:
    def test_shard_of_respects_cuts(self):
        r = RangeRouter([10, 20])
        assert r.n_shards == 3
        assert r.shard_of([0, 9, 10, 19, 20, 99]).tolist() \
            == [0, 0, 1, 1, 2, 2]

    def test_from_keys_equi_depth(self):
        keys = np.arange(100, dtype=np.uint64)
        r = RangeRouter.from_keys(keys, 4)
        counts = np.bincount(r.shard_of(keys), minlength=4)
        assert counts.tolist() == [25, 25, 25, 25]

    def test_shard_span_clips(self):
        r = RangeRouter([10, 20])
        assert r.shard_span(0, 5) == (0, 0)
        assert r.shard_span(5, 15) == (0, 1)
        assert r.shard_span(12, 99) == (1, 2)

    def test_split_and_merge_round_trip(self):
        r = RangeRouter([10, 20])
        r2 = r.split(1, 15)
        assert r2.cuts.tolist() == [10, 15, 20]
        assert r2.epoch == r.epoch + 1
        r3 = r2.merge(1)
        assert r3.cuts.tolist() == [10, 20]
        # the original router is untouched (immutability)
        assert r.cuts.tolist() == [10, 20]

    def test_split_rejects_out_of_range_cut(self):
        r = RangeRouter([10, 20])
        with pytest.raises(ValueError):
            r.split(1, 10)   # cut must be > shard lo
        with pytest.raises(ValueError):
            r.split(1, 21)   # belongs to shard 2

    def test_unsorted_cuts_rejected(self):
        with pytest.raises(ValueError):
            RangeRouter([20, 10])


class TestHashRouter:
    def test_deterministic_and_complete(self):
        r = HashRouter(5)
        keys = np.arange(1000, dtype=np.uint64)
        a, b = r.shard_of(keys), r.shard_of(keys)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= set(range(5))
        # splitmix64 levels even sequential keys across all shards
        counts = np.bincount(a, minlength=5)
        assert counts.min() > 0

    def test_scans_broadcast(self):
        assert HashRouter(4).shard_span(5, 6) == (0, 3)


class TestGroupByShard:
    def test_round_trips_arrival_order(self):
        ids = np.array([2, 0, 1, 0, 2, 2])
        groups = group_by_shard(ids, 3)
        out = np.empty(6, dtype=np.int64)
        for sid, g in enumerate(groups):
            out[g] = sid
        assert np.array_equal(out, ids)


#: (router, GPU fault rate) of each identity case; a drilled service
#: must answer what the fault-free unsharded tree answers.  The drill's
#: seed makes every drilled case inject at least one fault.
DRILL_SEED = 7
IDENTITY_CASES = [("range", 0.0), ("hash", 0.0), ("range", 0.2),
                  ("hash", 0.2)]


@pytest.mark.parametrize("router,fault_rate", IDENTITY_CASES,
                         ids=["range", "hash", "range-drill", "hash-drill"])
class TestBitIdentity:
    @staticmethod
    def _service(data, m1, router, fault_rate, n_shards):
        keys, values = data
        plan = (FaultPlan.uniform(fault_rate, seed=DRILL_SEED)
                if fault_rate else None)
        return IndexService.build(keys, values, ServiceConfig(
            n_shards=n_shards, router=router, machine=m1,
            fault_plan=plan))

    @staticmethod
    def _drilled(svc, fault_rate):
        """No drill, or a drill that injected faults."""
        return (fault_rate == 0.0
                or sum(s.stats().faults for s in svc.shards) > 0)

    def test_lookups_match_unsharded(self, data, baseline, m1, router,
                                     fault_rate):
        keys, _values = data
        svc = self._service(data, m1, router, fault_rate, 4)
        rng = np.random.default_rng(1)
        q = _mixed_queries(rng, keys, 600)
        assert np.array_equal(svc.lookup_batch(q),
                              baseline.lookup_batch(q))
        assert self._drilled(svc, fault_rate)

    def test_scans_match_unsharded(self, data, baseline, m1, router,
                                   fault_rate):
        keys, _values = data
        svc = self._service(data, m1, router, fault_rate, 4)
        rng = np.random.default_rng(2)
        los = np.sort(rng.choice(keys, 24))
        his = los + rng.integers(1, 1 << 40, 24, dtype=np.uint64)
        got = svc.run_scans(los, his)
        want = baseline.run_scans(los, his)
        assert [[tuple(r) for r in s] for s in got] \
            == [[tuple(r) for r in s] for s in want]
        assert self._drilled(svc, fault_rate)

    def test_updates_match_unsharded(self, data, m1, router, fault_rate):
        keys, values = data
        svc = self._service(data, m1, router, fault_rate, 3)
        tree = bulk_load("hb-regular", keys, values, machine=m1)
        rng = np.random.default_rng(3)
        # repeated keys in one batch: arrival order must decide
        upk = np.repeat(rng.choice(keys, 40), 2)
        upv = rng.integers(1, 1 << 20, 80, dtype=np.uint64)
        dlk = rng.choice(keys, 20)
        svc.apply_updates(upk, upv, dlk)
        SyncUpdater(tree).apply(upk, upv, dlk)
        sk, sv = svc.contents()
        bk, bv = tree.stored_items()
        assert np.array_equal(sk, bk)
        assert np.array_equal(sv, bv)
        assert self._drilled(svc, fault_rate)


class TestBuildInputPath:
    """The build sorts the pairs once (not at all when they arrive
    sorted): sorted and shuffled input give the same service, and
    neither keeps the caller's arrays."""

    @pytest.mark.parametrize("kind", ["hb-regular", "hb-implicit"])
    def test_sorted_and_shuffled_input_build_the_same(self, data, m1, kind):
        keys, values = data
        order = np.random.default_rng(4).permutation(len(keys))
        config = ServiceConfig(n_shards=4, kind=kind, machine=m1)
        svcs = [IndexService.build(k, v, config)
                for k, v in ((keys, values), (keys[order], values[order]))]
        a, b = svcs
        assert np.array_equal(a.router.cuts, b.router.cuts)
        assert a.router.cuts.dtype == b.router.cuts.dtype
        assert a.router.epoch == b.router.epoch
        for sa, sb in zip(a.shards, b.shards):
            for x, y in zip(sa.contents(), sb.contents()):
                assert np.array_equal(x, y)
            assert capture_payload(sa.tree) == capture_payload(sb.tree)

    @pytest.mark.parametrize("router", ["range", "hash"])
    @pytest.mark.parametrize("kind", ["hb-regular", "hb-implicit"])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_build_sorts_once(self, data, m1, monkeypatch, shuffled, kind,
                              router):
        import repro.cpu.btree_implicit
        import repro.cpu.btree_regular
        import repro.keys
        import repro.service.router
        import repro.service.service

        sorts = []

        def counting(real):
            def wrapper(keys, *rest):
                if not repro.keys.strictly_increasing(np.asarray(keys)):
                    sorts.append(len(keys))
                return real(keys, *rest)
            return wrapper

        for module, name in ((repro.service.service, "sorted_pairs"),
                             (repro.service.router, "sorted_unique"),
                             (repro.cpu.btree_regular, "sorted_pairs"),
                             (repro.cpu.btree_implicit, "sorted_pairs")):
            monkeypatch.setattr(module, name,
                                counting(getattr(module, name)))
        keys, values = data
        if shuffled:
            order = np.random.default_rng(7).permutation(len(keys))
            keys, values = keys[order], values[order]
        IndexService.build(keys, values, ServiceConfig(
            n_shards=4, kind=kind, router=router, machine=m1))
        assert sorts == ([len(keys)] if shuffled else [])

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_callers_arrays_stay_the_callers(self, data, m1, shuffled):
        keys, values = (np.array(a) for a in data)
        if shuffled:
            order = np.random.default_rng(5).permutation(len(keys))
            keys, values = keys[order], values[order]
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=4, machine=m1))
        q = _mixed_queries(np.random.default_rng(6), keys, 400)
        want = _answers(dict(zip(keys.tolist(), values.tolist())), q)
        keys[:] = 0
        values[:] = 0
        assert np.array_equal(svc.lookup_batch(q), want)
        assert [len(s) for s in svc.shards] == [512] * 4


class TestFaultDrill:
    def test_lookups_correct_under_faults(self, data, baseline, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=3, machine=m1,
            fault_plan=FaultPlan.uniform(0.3, seed=42)))
        rng = np.random.default_rng(4)
        q = _mixed_queries(rng, keys, 400)
        for _ in range(3):
            assert np.array_equal(svc.lookup_batch(q),
                                  baseline.lookup_batch(q))
        assert sum(s.stats().faults for s in svc.shards) > 0

    def test_shard_namespaces_are_disjoint(self):
        plan = FaultPlan.uniform(0.1, seed=9)
        seeds = {shard_fault_plan(plan, sid).seed for sid in range(16)}
        assert len(seeds) == 16
        assert all(s != plan.seed for s in seeds)

    def test_implicit_kind_rejects_fault_plan(self, data, m1):
        keys, values = data
        with pytest.raises(ValueError):
            IndexService.build(keys, values, ServiceConfig(
                n_shards=2, kind="hb-implicit", machine=m1,
                fault_plan=FaultPlan.uniform(0.1)))


class TestAdaptiveShards:
    def test_controllers_drift_independently(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=3, kind="hb-implicit", adaptive=True,
            machine=m1))
        controllers = [s.controller for s in svc.shards]
        assert all(c is not None for c in controllers)
        assert len({id(c) for c in controllers}) == 3
        rng = np.random.default_rng(5)
        svc.lookup_batch(rng.choice(keys, 500))
        # each shard balances its own tree, not a shared one
        trees = {id(s.tree) for s in svc.shards}
        assert len(trees) == 3


class TestQuotaEnforcement:
    def test_noisy_tenant_capped_others_served(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1,
            quota=QuotaConfig(tenants={"noisy": (300, 100.0)})))
        rng = np.random.default_rng(6)
        svc.lookup_batch(rng.choice(keys, 300), tenant="noisy")
        with pytest.raises(QuotaExceeded):
            svc.lookup_batch(rng.choice(keys, 50), tenant="noisy")
        # the rejected batch never reached a shard
        assert sum(s.stats().lookups for s in svc.shards) == 300
        # other tenants are unaffected
        svc.lookup_batch(rng.choice(keys, 400), tenant="quiet")
        svc.advance(0.5)
        svc.lookup_batch(rng.choice(keys, 50), tenant="noisy")

    def test_scans_and_updates_are_charged(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1,
            quota=QuotaConfig(tenants={"t": (10, 0.0)})))
        svc.run_scans(keys[:4], keys[:4], tenant="t")      # 4 tokens
        svc.apply_updates(keys[:6], np.arange(6), tenant="t")  # 6
        with pytest.raises(QuotaExceeded):
            svc.lookup_batch(keys[:1], tenant="t")


class TestAdmission:
    def test_shed_policy_raises_without_side_effects(self):
        q = ShardQueue(0, capacity_ops=10,
                       policy=AdmissionPolicy.SHED)
        q.acquire(8)
        with pytest.raises(ShardOverloaded):
            q.acquire(5)
        assert q.depth == 8
        assert q.stats.shed_batches == 1
        q.release(8)
        assert q.depth == 0

    def test_block_policy_waits_for_space(self):
        q = ShardQueue(0, capacity_ops=10)
        q.acquire(10)
        admitted = threading.Event()

        def blocked():
            with q.admit(5):
                admitted.set()

        t = threading.Thread(target=blocked)
        t.start()
        assert not admitted.wait(0.05)
        q.release(10)
        assert admitted.wait(2.0)
        t.join()
        assert q.stats.blocked_waits == 1

    def test_block_timeout_sheds(self):
        q = ShardQueue(0, capacity_ops=4, timeout_s=0.01)
        q.acquire(4)
        with pytest.raises(ShardOverloaded):
            q.acquire(2)
        q.release(4)

    def test_oversized_batch_admitted_alone(self):
        q = ShardQueue(0, capacity_ops=4,
                       policy=AdmissionPolicy.SHED)
        with q.admit(100):
            assert q.depth == 100
            with pytest.raises(ShardOverloaded):
                q.acquire(1)
        assert q.depth == 0


class TestSplitMerge:
    def test_split_preserves_contents_and_lookups(self, data, baseline,
                                                  m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1))
        rng = np.random.default_rng(7)
        q = _mixed_queries(rng, keys, 300)
        svc.split_shard(0)
        assert svc.n_shards == 3
        assert svc.router.epoch == 1
        sk, sv = svc.contents()
        assert np.array_equal(sk, keys)
        assert np.array_equal(sv, values)
        assert np.array_equal(svc.lookup_batch(q),
                              baseline.lookup_batch(q))

    def test_merge_restores_shard_count(self, data, baseline, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=3, machine=m1))
        rng = np.random.default_rng(8)
        q = _mixed_queries(rng, keys, 300)
        svc.merge_shards(0)
        assert svc.n_shards == 2
        assert np.array_equal(svc.lookup_batch(q),
                              baseline.lookup_batch(q))

    def test_hash_service_cannot_split(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, router="hash", machine=m1))
        with pytest.raises(ValueError):
            svc.split_shard(0)
        with pytest.raises(ValueError):
            svc.merge_shards(0)

    def test_explicit_cut_partitions_exactly(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=1, machine=m1))
        cut = int(keys[len(keys) // 2])
        left, right = svc.split_shard(0, cut=cut)
        n_left = len(svc.shards[left])
        assert n_left == int(np.sum(keys < cut))
        assert n_left + len(svc.shards[right]) == len(keys)

    def test_snapshot_fault_contained(self, data, m1, tmp_path):
        keys, values = data
        manager = SnapshotManager(
            tmp_path, injector=FaultInjector(FaultPlan.storage(1.0)))
        svc = IndexService.build(
            keys, values, ServiceConfig(n_shards=2, machine=m1),
            snapshot_manager=manager)
        svc.split_shard(0)
        assert svc.snapshot_failures == 1
        assert manager.snapshots() == []
        sk, sv = svc.contents()
        assert np.array_equal(sk, keys)

    def test_healthy_snapshot_written_on_split(self, data, m1,
                                               tmp_path):
        keys, values = data
        manager = SnapshotManager(tmp_path)
        svc = IndexService.build(
            keys, values, ServiceConfig(n_shards=2, machine=m1),
            snapshot_manager=manager)
        svc.split_shard(1)
        assert svc.snapshot_failures == 0
        assert len(manager.snapshots()) == 1

    def test_split_merge_under_reader_load(self, data, m1):
        keys, values = data
        truth = dict(zip(keys.tolist(), values.tolist()))
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1))
        stop = threading.Event()
        errors = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                q = rng.choice(keys, 64)
                out = svc.lookup_batch(q, tenant=f"r{seed}")
                for k, v in zip(q.tolist(), out.tolist()):
                    if truth[k] != v:
                        errors.append((k, v))
                        return

        threads = [threading.Thread(target=reader, args=(s,))
                   for s in (1, 2)]
        for t in threads:
            t.start()
        try:
            for _ in range(3):
                svc.split_shard(
                    int(np.argmax([len(s) for s in svc.shards])))
                svc.merge_shards(0)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        assert svc.splits == 3 and svc.merges == 3
        sk, _ = svc.contents()
        assert np.array_equal(sk, keys)


class TestRebalance:
    def test_hot_shard_splits_on_drift(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1, hot_share=0.8,
            min_rebalance_ops=256))
        # hammer one shard's keyspace only
        hot_keys = keys[keys < svc.router.cuts[0]]
        rng = np.random.default_rng(9)
        for _ in range(4):
            svc.lookup_batch(rng.choice(hot_keys, 128))
        action = svc.maybe_rebalance()
        assert action is not None and "split" in action
        assert svc.n_shards == 3

    def test_cold_pair_merges(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=4, machine=m1, hot_share=2.0,  # splits disabled
            cold_share=0.2, min_rebalance_ops=128))
        # traffic only on the last shard: the coldest adjacent pair
        # (two of the idle shards) merges
        hot_keys = keys[keys >= svc.router.cuts[-1]]
        rng = np.random.default_rng(10)
        for _ in range(2):
            svc.lookup_batch(rng.choice(hot_keys, 128))
        action = svc.maybe_rebalance()
        assert action is not None and "merged" in action
        assert svc.n_shards == 3

    @pytest.mark.parametrize("how", ["split_shard", "maybe_rebalance"])
    def test_split_reads_contents_once(self, data, m1, monkeypatch, how):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1, hot_share=0.8,
            min_rebalance_ops=256))
        svc.lookup_batch(keys[keys < svc.router.cuts[0]][:512])
        reads = []
        contents = Shard.contents

        def counted(shard):
            reads.append(shard.sid)
            return contents(shard)

        monkeypatch.setattr(Shard, "contents", counted)
        parent = svc.shards[0].sid
        if how == "split_shard":
            svc.split_shard(0)
        else:
            assert "split" in svc.maybe_rebalance()
        assert svc.n_shards == 3
        assert reads == [parent]

    def test_below_min_ops_is_noop(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1, min_rebalance_ops=10 ** 9))
        svc.lookup_batch(keys[:64])
        assert svc.maybe_rebalance() is None
        assert svc.n_shards == 2


class TestLatencyRecorder:
    def test_ceil_nearest_rank_percentiles(self):
        rec = LatencyRecorder()
        empty = rec.summary()
        assert (empty["batches"], empty["throughput_ops_s"]) == (0, 0.0)
        for us in [7, 20, 1, 13, 2, 19, 3, 18, 4, 17, 5, 16, 6, 15, 8, 14,
                   9, 12, 10, 11]:  # 1..20 us, out of order
            rec.record(us * 1000, ops=4)
        s = rec.summary()
        assert s["percentile_method"] == "ceil_nearest_rank"
        # ranks ceil(0.5 * 20) = 10, ceil(0.95 * 20) = 19,
        # ceil(0.99 * 20) = 20
        assert (s["p50_ns"], s["p95_ns"], s["p99_ns"]) \
            == (10_000.0, 19_000.0, 20_000.0)
        assert (s["batches"], s["ops"]) == (20, 80)
        # 80 ops over 210 us of batch latency
        assert s["throughput_ops_s"] == pytest.approx(80 / 210e-6)


class TestObservability:
    def test_publish_service_exports_gauges(self, data, m1):
        keys, values = data
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1,
            quota=QuotaConfig(tenants={"t": (100, 0.0)})))
        svc.lookup_batch(keys[:50], tenant="t")
        registry = MetricsRegistry()
        publish_service(registry, svc)
        snap = registry.snapshot()
        assert snap["service.shards"] == 2
        assert snap["service.shard.lookups{shard=0}"] \
            + snap["service.shard.lookups{shard=1}"] == 50
        assert snap["service.tenant.admitted_ops{tenant=t}"] == 50
        assert snap["service.latency.p99_ns"] > 0

    def test_service_spans_emitted(self, data, m1):
        keys, values = data
        obs = Observability()
        svc = IndexService.build(keys, values, ServiceConfig(
            n_shards=2, machine=m1), obs=obs)
        svc.lookup_batch(keys[:32])
        names = {e.get("name") for e in obs.tracer.events}
        assert "service.lookup" in names
        assert "shard.lookup" in names
