#!/usr/bin/env python3
"""An operations playbook: the library features a deployment leans on.

Walks one index through a day of operation:

1. build + persist the index (``save_index`` / ``load_index``),
2. validate it deeply, including GPU-mirror consistency
   (``validate_index``),
3. serve a production-like trace with a drifting hot set
   (``synthesize_trace`` / ``replay_trace``),
4. onboard a scan-heavy tenant: batched range scans ride the GPU
   bucket machinery bit-identically to the sequential walk, and
   Algorithm 1 re-prices the (kernel, D, R) split for the scan mix
   (``BatchingEngine.run_scans`` / ``set_scan_profile``),
5. absorb a large write burst with GPU-assisted batch updates
   (``GpuAssistedUpdater``), then re-validate and re-persist,
6. survive a GPU incident: under injected faults the resilient wrapper
   degrades to CPU-only service (answers stay correct), then recovers
   to hybrid throughput once the faults clear
   (``ResilientHBPlusTree`` / ``FaultInjector``),
7. warm restart after a node failure: periodic checksummed snapshots
   (one torn mid-write by an injected storage fault — the live tree
   and older snapshots are untouched), then a replacement node comes
   up via ``warm_restart``: restored from the newest intact snapshot
   with the adaptive controller's committed (D, R) pinned, serving
   bit-identical answers with no reprofiling window
   (``SnapshotManager`` / ``warm_restart``),
8. scale out to the sharded multi-tenant service and split a hot
   shard online while readers stream lookups: a noisy tenant is
   capped by its token-bucket quota while others are fully served,
   the drift-driven rebalancer splits the shard taking most of the
   traffic, and every answer stays bit-identical throughout
   (``IndexService`` / ``maybe_rebalance``).

Run:  python examples/operations_playbook.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BatchingEngine,
    FaultInjector,
    FaultPlan,
    GpuAssistedUpdater,
    HBPlusTree,
    ImplicitHBPlusTree,
    IndexService,
    QuotaConfig,
    QuotaExceeded,
    ResilienceConfig,
    ResilientHBPlusTree,
    ServiceConfig,
    SnapshotManager,
    load_index,
    machine_m1,
    save_index,
    validate_index,
    warm_restart,
)
from repro.core.adaptive import AdaptiveController
from repro.core.load_balance import LoadBalancer
from repro.workloads import generate_dataset
from repro.workloads.queries import make_insert_batch, make_scan_queries
from repro.workloads.trace import replay_trace, synthesize_trace


def main() -> None:
    # every archive and snapshot lives in one directory a run removes
    with tempfile.TemporaryDirectory(prefix="hbtree_ops_") as tmp:
        run_playbook(Path(tmp))


def run_playbook(workdir: Path) -> None:
    machine = machine_m1()

    # 1. build + persist
    keys, values = generate_dataset(1 << 16, seed=2026)
    tree = HBPlusTree(keys, values, machine=machine, fill=0.7)
    path = save_index(tree, workdir / "orders_index")
    print(f"built {len(tree):,}-tuple index; persisted to {path}")

    # reload on a "fresh node", leaving room for the day's inserts
    tree = load_index(path, machine=machine, fill=0.7)
    print(f"reloaded: {len(tree):,} tuples, height {tree.height}")

    # 2. deep validation (structure + GPU mirror via the SIMT kernel)
    validate_index(tree)
    print("validate_index: structure and GPU mirror consistent")

    # 3. serve a drifting-hot-set trace
    trace = synthesize_trace(
        keys, 5_000, read_ratio=0.85, working_set=0.03, drift_every=800,
    )
    trace_path = trace.save(workdir / "day1_trace")
    stats = replay_trace(trace, tree)
    print(
        f"replayed {stats.operations:,} ops from {trace_path.name}: "
        f"{stats.lookups:,} lookups ({stats.hit_rate:.1%} hit), "
        f"{stats.upserts:,} upserts, {stats.deletes:,} deletes, "
        f"{stats.ranges:,} ranges ({stats.range_tuples:,} tuples)"
    )
    validate_index(tree)

    # 4. a scan-heavy tenant arrives: batched scans descend through
    #    the GPU bucket path and finish on the vectorised leaf-chain
    #    walk; the balancer re-prices the split for the mix
    #    (DESIGN.md §15)
    los, his = make_scan_queries(keys, 512, 128, dist="geometric",
                                 seed=5)
    engine = BatchingEngine(tree)
    scans = engine.run_scans(los, his)
    assert scans[:4] == [
        tree.range_query(int(lo), int(hi))
        for lo, hi in zip(los[:4].tolist(), his[:4].tolist())
    ], "batched scans must match the sequential walk"
    tuples_per_scan = engine.stats.scan_tuples / len(los)
    # Algorithm-1 discovery profiles the implicit breadth-first
    # layout; price the split on an implicit twin of today's tuples
    cur_keys, cur_vals = tree.stored_items()
    implicit = ImplicitHBPlusTree(cur_keys, cur_vals, machine=machine)
    balancer = LoadBalancer(implicit, bucket_size=4096)
    lookup_split = balancer.discover()
    balancer.set_scan_profile(0.5, tuples_per_scan)
    scan_split = balancer.discover()
    balancer.set_scan_profile(0.0, 0.0)
    print(
        f"scan tenant: {len(los)} scans, "
        f"{engine.stats.scan_tuples:,} tuples "
        f"(~{tuples_per_scan:.0f}/scan, bit-identical); split "
        f"lookup-only (D={lookup_split.depth}, R={lookup_split.ratio}, "
        f"{lookup_split.kernel}) -> scan-heavy (D={scan_split.depth}, "
        f"R={scan_split.ratio}, {scan_split.kernel})"
    )

    # 5. nightly write burst, GPU assisted
    burst_keys, burst_vals = make_insert_batch(
        tree.stored_keys(), 8_192, 64,
    )
    burst = GpuAssistedUpdater(tree).apply(burst_keys, burst_vals)
    print(
        f"write burst: {burst.applied:,} upserts, "
        f"{burst.redescended} re-descended after splits, "
        f"modeled {burst.total_ns / 1e6:.2f} ms "
        f"(GPU locate {burst.gpu_locate_ns / 1e6:.2f} ms)"
    )
    validate_index(tree)
    final = save_index(tree, workdir / "orders_index_day2")
    print(f"validated and re-persisted to {final}")

    # 6. GPU incident: degrade gracefully, then recover
    served_keys, served_vals = tree.stored_items()
    injector = FaultInjector(FaultPlan.none(seed=7))
    resilient = ResilientHBPlusTree(
        tree, injector=injector, config=ResilienceConfig(probe_interval=2)
    )
    rng = np.random.default_rng(7)

    def serve(batches: int) -> float:
        q0, t0 = resilient.stats.served_queries, resilient.stats.served_ns
        for _ in range(batches):
            q = rng.choice(served_keys, size=resilient.bucket_size)
            out = resilient.engine.lookup_batch(q)
            expected = served_vals[np.searchsorted(served_keys, q)]
            assert np.array_equal(out, expected), "wrong answer under faults"
        dq = resilient.stats.served_queries - q0
        dt = resilient.stats.served_ns - t0
        return dq * 1e9 / dt / 1e6

    healthy = serve(6)
    print(f"healthy hybrid service: {healthy:.0f} MQPS")

    injector.plan = FaultPlan.uniform(1.0, seed=7)  # the GPU goes dark
    degraded = serve(6)
    s = resilient.stats
    print(
        f"GPU incident: {degraded:.0f} MQPS from the CPU-only path "
        f"(degraded={resilient.degraded}, "
        f"faults absorbed={s.faults_handled}, every answer verified)"
    )

    injector.plan = FaultPlan.none(seed=7)  # ops fixed the GPU
    while resilient.degraded:  # next probe notices and re-mirrors
        serve(1)
    recovered = serve(6)
    print(
        f"recovered: {recovered:.0f} MQPS hybrid "
        f"(recoveries={resilient.stats.recoveries}, "
        f"mirror refreshes={resilient.stats.mirror_refreshes})"
    )

    # 7. warm restart after node failure: the runbook is three steps —
    #    (a) snapshot on a schedule; a torn write costs one snapshot,
    #        never the live tree or the older snapshots on disk;
    #    (b) when the node dies, point a fresh process at the snapshot
    #        directory and call warm_restart();
    #    (c) verify: committed (D, R) pinned, no reprofiling window,
    #        answers bit-identical to the pre-failure tree.
    controller = AdaptiveController.for_tree(tree)
    manager = SnapshotManager(workdir / "snaps", keep=4)
    manager.save(tree, split=controller.split())
    torn = SnapshotManager(
        workdir / "snaps",
        injector=FaultInjector(FaultPlan(seed=7, torn_write=1.0)),
    )
    assert torn.save(tree, split=controller.split()) is None
    probe = rng.choice(served_keys, size=4096)
    expected = tree.lookup_batch(probe)
    assert np.array_equal(tree.lookup_batch(probe), expected)
    print(
        f"snapshots: {len(manager.snapshots())} intact on disk, "
        f"1 torn write absorbed (live tree unaffected)"
    )

    # the node fails; a replacement boots from the snapshot directory
    warm = warm_restart(manager, machine=machine_m1(), fill=0.7)
    assert warm.restore.source == "snapshot"
    assert warm.controller is not None
    assert warm.controller.split() == controller.split()
    assert np.array_equal(warm.tree.lookup_batch(probe), expected)
    print(
        f"warm restart: restored from {warm.restore.path.name}, "
        f"split pinned at (D={warm.controller.depth}, "
        f"R={warm.controller.ratio}) with no reprofiling window, "
        f"probe answers bit-identical"
    )

    # 8. scale-out: the runbook for splitting a hot shard under load —
    #    (a) stand the sharded service up with per-tenant quotas and a
    #        snapshot directory (splits snapshot the parent first);
    #    (b) watch the per-shard traffic shares; when one shard takes
    #        the bulk of the load, maybe_rebalance() splits it at a
    #        traffic-aware cut while readers keep streaming;
    #    (c) verify: router epoch advanced, quotas held, answers
    #        bit-identical to the unsharded reference throughout.
    svc_keys, svc_values = (
        np.sort(served_keys), np.arange(len(served_keys), dtype=np.uint64)
    )
    svc = IndexService.build(
        svc_keys, svc_values,
        ServiceConfig(
            n_shards=2, machine=machine_m1(), hot_share=0.6,
            min_rebalance_ops=512,
            quota=QuotaConfig(tenants={"noisy": (1024, 256.0)}),
        ),
        snapshot_manager=SnapshotManager(workdir / "svc-snaps"),
    )
    reference = dict(zip(svc_keys.tolist(), svc_values.tolist()))
    hot = svc_keys[svc_keys < svc.router.cuts[0]]  # one shard's keys
    throttled = 0
    for _ in range(8):
        batch = rng.choice(hot, size=256)
        try:
            out = svc.lookup_batch(batch, tenant="noisy")
        except QuotaExceeded:
            throttled += 1
            svc.advance(1.0)  # the bucket refills; service continues
            continue
        assert all(reference[int(k)] == int(v)
                   for k, v in zip(batch, out))
        out = svc.lookup_batch(rng.choice(svc_keys, 256), tenant="quiet")
    action = svc.maybe_rebalance()
    assert svc.n_shards == 3 and svc.router.epoch == 1
    probe = rng.choice(svc_keys, size=2048)
    assert all(reference[int(k)] == int(v)
               for k, v in zip(probe, svc.lookup_batch(probe)))
    lat = svc.latency.summary()
    print(
        f"sharded service: {action}; noisy tenant throttled "
        f"{throttled}x (others fully served), p99 "
        f"{lat['p99_ns'] / 1e6:.2f} ms, answers bit-identical "
        f"across {svc.n_shards} shards"
    )


if __name__ == "__main__":
    main()
