"""Service-level benchmark of the sharded multi-tenant index (BENCH_pr10).

Four gates, one report:

1. **Identity** — the sharded service (range- and hash-routed,
   lookups, scans, updates) is bit-identical to a single unsharded
   tree over the merged keyspace, *including* while a
   :class:`~repro.faults.FaultPlan` drills the shards' GPUs (the
   per-shard :class:`~repro.core.resilience.ResilientHBPlusTree`
   wrappers keep every answer correct; the gate compares against the
   fault-free ground truth, not another faulty run).
2. **Quota isolation** — under a mixed-tenant Zipf workload, a noisy
   tenant hammering the service is capped at exactly its token-bucket
   budget while every other tenant's requests are all served: total
   noisy admissions never exceed ``capacity + refill * elapsed`` and
   no victim batch is rejected.
3. **Split/merge under load** — a hot shard is split and later merged
   while reader threads stream lookups, with a storage
   :class:`~repro.faults.FaultPlan` failing every snapshot write: the
   topology changes land (router epoch advances), every concurrent
   lookup stays correct, the merged contents are unchanged, and the
   snapshot failures are contained (counted, never fatal).
4. **Latency** — service-side p50/p95/p99 batch latency and
   throughput under the mixed-tenant load, reported with the fixed
   ceil-based nearest-rank percentile (``percentile_method`` is
   asserted in the gate so a silent regression to the old rounding
   cannot pass).

``run_service`` returns one JSON-serialisable dict and
:func:`gate_failures` is its gate; ``python -m repro.bench.gates
service`` runs both and writes ``BENCH_pr10.json``.
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import Any, Dict, List

import numpy as np

from repro.core.batching import BatchingEngine
from repro.faults import FaultInjector, FaultPlan
from repro.lifecycle import SnapshotManager
from repro.lifecycle.bulkload import bulk_load
from repro.platform.configs import machine_m1
from repro.service import (
    IndexService,
    QuotaConfig,
    QuotaExceeded,
    ServiceConfig,
)
from repro.workloads.generators import generate_dataset

#: GPU fault rate of the identity drill (high enough that every shard
#: sees faults on the smoke sizes)
DRILL_RATE = 0.2

#: Zipf skew of the mixed-tenant traffic
ZIPF_A = 1.3


def _zipf_queries(rng, keys: np.ndarray, n: int) -> np.ndarray:
    idx = (rng.zipf(ZIPF_A, n) - 1) % len(keys)
    return keys[idx]


def _rows_equal(a: List, b: List) -> bool:
    return [[tuple(r) for r in scan] for scan in a] \
        == [[tuple(r) for r in scan] for scan in b]


def _identity_rows(keys, values, machine, smoke: bool
                   ) -> List[Dict[str, Any]]:
    """Gate-1 rows: sharded vs unsharded, per router, plus the drill."""
    rng = np.random.default_rng(101)
    n_q = 512 if smoke else 4096
    n_scans = 16 if smoke else 64
    queries = np.concatenate([
        _zipf_queries(rng, keys, n_q),
        rng.integers(0, np.iinfo(np.uint64).max, n_q // 8,
                     dtype=np.uint64),  # misses
    ])
    los = np.sort(rng.choice(keys, n_scans))
    his = los + rng.integers(1, 1 << 40, n_scans, dtype=np.uint64)
    upk = rng.choice(keys, n_q // 4)
    upv = rng.integers(1, 1 << 32, n_q // 4, dtype=np.uint64)
    dlk = rng.choice(keys, n_q // 16)

    rows = []
    for router in ("range", "hash"):
        for fault_rate in (0.0, DRILL_RATE):
            plan = (FaultPlan.uniform(fault_rate, seed=77)
                    if fault_rate else None)
            svc = IndexService.build(keys, values, ServiceConfig(
                n_shards=4, router=router, machine=machine,
                fault_plan=plan,
            ))
            base_tree = bulk_load("hb-regular", keys, values,
                                  machine=machine)
            base = BatchingEngine(base_tree)
            lookups_ok = bool(np.array_equal(
                svc.lookup_batch(queries), base.lookup_batch(queries)
            ))
            scans_ok = _rows_equal(svc.run_scans(los, his),
                                   base.run_scans(los, his))
            svc.apply_updates(upk, upv, dlk)
            from repro.core.update import SyncUpdater
            SyncUpdater(base_tree).apply(upk, upv, dlk)
            sk, sv = svc.contents()
            bk, bv = base_tree.stored_items()
            updates_ok = bool(np.array_equal(sk, bk)
                              and np.array_equal(sv, bv))
            faults = sum(s.stats().faults for s in svc.shards)
            rows.append({
                "router": router,
                "fault_rate": fault_rate,
                "lookups_bit_identical": lookups_ok,
                "scans_bit_identical": scans_ok,
                "updates_bit_identical": updates_ok,
                "injected_faults": faults,
            })
    return rows


def _quota_row(keys, values, machine, smoke: bool) -> Dict[str, Any]:
    """Gate-2: the noisy tenant is capped, the victims are unstarved."""
    rng = np.random.default_rng(202)
    capacity, refill = 2048.0, 512.0
    svc = IndexService.build(keys, values, ServiceConfig(
        n_shards=4, machine=machine,
        quota=QuotaConfig(tenants={"noisy": (capacity, refill)}),
    ))
    rounds = 4 if smoke else 16
    batch = 256 if smoke else 1024
    advance_s = 1.0
    noisy_attempted = noisy_admitted = noisy_rejected = 0
    victim_attempted = victim_admitted = 0
    for _ in range(rounds):
        # the noisy tenant submits 4x its fair share every round
        for _ in range(4):
            q = _zipf_queries(rng, keys, batch)
            noisy_attempted += len(q)
            try:
                svc.lookup_batch(q, tenant="noisy")
                noisy_admitted += len(q)
            except QuotaExceeded:
                noisy_rejected += len(q)
        for tenant in ("alpha", "beta"):
            q = _zipf_queries(rng, keys, batch)
            victim_attempted += len(q)
            svc.lookup_batch(q, tenant=tenant)  # raises on starvation
            victim_admitted += len(q)
        svc.advance(advance_s)
    budget = capacity + refill * rounds * advance_s
    return {
        "noisy_capacity": capacity,
        "noisy_refill_per_s": refill,
        "noisy_attempted": noisy_attempted,
        "noisy_admitted": noisy_admitted,
        "noisy_rejected": noisy_rejected,
        "noisy_budget": budget,
        "noisy_within_budget": noisy_admitted <= budget,
        "victim_attempted": victim_attempted,
        "victim_admitted": victim_admitted,
        "victims_unstarved": victim_admitted == victim_attempted,
    }


def _split_merge_row(keys, values, machine, smoke: bool
                     ) -> Dict[str, Any]:
    """Gate-3: online split+merge under reader load, snapshots failing."""
    rng = np.random.default_rng(303)
    truth = dict(zip(keys.tolist(), values.tolist()))
    errors: List[str] = []
    stop = threading.Event()

    with tempfile.TemporaryDirectory() as tmp:
        manager = SnapshotManager(
            tmp, injector=FaultInjector(FaultPlan.storage(1.0, seed=5))
        )
        svc = IndexService.build(
            keys, values,
            ServiceConfig(n_shards=3, machine=machine),
            snapshot_manager=manager,
        )

        def reader(seed: int) -> None:
            r = np.random.default_rng(seed)
            while not stop.is_set():
                q = _zipf_queries(r, keys, 128)
                out = svc.lookup_batch(q, tenant=f"reader{seed}")
                for k, v in zip(q.tolist(), out.tolist()):
                    if truth[k] != v:
                        errors.append(f"key {k}: got {v}, "
                                      f"want {truth[k]}")
                        return

        threads = [threading.Thread(target=reader, args=(s,))
                   for s in (1, 2)]
        for t in threads:
            t.start()
        epoch0 = svc.router.epoch
        rounds = 2 if smoke else 6
        for _ in range(rounds):
            hot = int(np.argmax([s.served_ops for s in svc.shards]))
            svc.split_shard(hot)
            time.sleep(0.02)
            svc.merge_shards(min(hot, svc.n_shards - 2))
            time.sleep(0.02)
        stop.set()
        for t in threads:
            t.join()

        sk, sv = svc.contents()
        contents_ok = bool(np.array_equal(sk, keys)
                           and np.array_equal(sv, values))
        return {
            "topology_changes": svc.splits + svc.merges,
            "epoch_delta": svc.router.epoch - epoch0,
            "snapshot_failures": svc.snapshot_failures,
            "snapshot_failures_contained": (
                svc.snapshot_failures == svc.splits
            ),
            "reader_errors": errors[:4],
            "reads_correct_throughout": not errors,
            "contents_unchanged": contents_ok,
        }


def _latency_row(keys, values, machine, smoke: bool) -> Dict[str, Any]:
    """Gate-4: mixed-tenant latency through the fixed percentile."""
    rng = np.random.default_rng(404)
    svc = IndexService.build(keys, values, ServiceConfig(
        n_shards=4, machine=machine,
    ))
    batches = 24 if smoke else 128
    for i in range(batches):
        tenant = ("alpha", "beta", "gamma")[i % 3]
        svc.lookup_batch(_zipf_queries(rng, keys, 256), tenant=tenant)
        if i % 6 == 5:
            los = np.sort(rng.choice(keys, 8))
            his = los + np.uint64(1 << 36)
            svc.run_scans(los, his, tenant=tenant)
    return svc.latency.summary()


def run_service(smoke: bool = False) -> Dict[str, Any]:
    """The full PR-10 report (gates 1-4)."""
    machine = machine_m1()
    n_keys = 2048 if smoke else 16384
    keys, values = generate_dataset(n_keys, key_bits=64, seed=10)
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    return {
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "keys": int(n_keys),
        "identity": _identity_rows(keys, values, machine, smoke),
        "quota": _quota_row(keys, values, machine, smoke),
        "split_merge": _split_merge_row(keys, values, machine, smoke),
        "latency": _latency_row(keys, values, machine, smoke),
    }


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """Every acceptance-gate violation in a ``run_service`` report."""
    failures: List[str] = []
    for row in report["identity"]:
        tag = f"{row['router']}@{row['fault_rate']}"
        for what in ("lookups", "scans", "updates"):
            if not row[f"{what}_bit_identical"]:
                failures.append(f"identity[{tag}]: {what} diverged "
                                f"from the unsharded tree")
        if row["fault_rate"] > 0 and row["injected_faults"] == 0:
            failures.append(f"identity[{tag}]: the fault drill "
                            f"injected nothing")
    quota = report["quota"]
    if not quota["noisy_within_budget"]:
        failures.append(
            f"quota: noisy tenant admitted {quota['noisy_admitted']} "
            f"ops, budget {quota['noisy_budget']}"
        )
    if quota["noisy_rejected"] == 0:
        failures.append("quota: the noisy tenant was never throttled")
    if not quota["victims_unstarved"]:
        failures.append("quota: a victim tenant was starved")
    sm = report["split_merge"]
    if sm["epoch_delta"] < 2:
        failures.append("split_merge: topology never changed")
    if not sm["reads_correct_throughout"]:
        failures.append(
            f"split_merge: wrong reads during topology changes: "
            f"{sm['reader_errors']}"
        )
    if not sm["contents_unchanged"]:
        failures.append("split_merge: contents changed across "
                        "split+merge")
    if not sm["snapshot_failures_contained"]:
        failures.append(
            f"split_merge: {sm['snapshot_failures']} snapshot "
            f"failures for {sm['topology_changes']} changes"
        )
    lat = report["latency"]
    if lat["percentile_method"] != "ceil_nearest_rank":
        failures.append("latency: not using the fixed ceil "
                        "nearest-rank percentile")
    if not (0 < lat["p50_ns"] <= lat["p95_ns"] <= lat["p99_ns"]):
        failures.append(
            f"latency: inconsistent percentiles p50={lat['p50_ns']} "
            f"p95={lat['p95_ns']} p99={lat['p99_ns']}"
        )
    if lat["throughput_ops_s"] <= 0:
        failures.append("latency: zero throughput")
    return failures
