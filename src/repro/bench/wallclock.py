"""Wall-clock benchmarks of the simulator's real hot paths.

The figure benchmarks measure *modeled* time (the paper's cost model);
this module measures how long the simulation itself takes to run on the
host — the numbers that PR-level performance work actually moves.  It
times the paths the batch engine and the vectorization work touch:

* **build** — bulk-building the regular hybrid tree,
* **mirror** — vectorised I-segment packing vs the per-node reference
  loop, and the full mirror upload,
* **lookup** — bulk lookups through the sorted/deduplicated
  :class:`~repro.core.batching.BatchingEngine` vs the naive path, plus
  the *modeled* sorted-vs-unsorted transaction delta on a skewed
  (zipf) workload,
* **update** — the async batch updater wall-clock and the batched
  dirty-node mirror sync (PCIe transfer counts batched vs per-node),
* **touch** — batched :meth:`MemorySystem.touch_lines` vs the
  per-line loop.

``run_wallclock`` returns one JSON-serialisable dict and
:func:`gate_failures` is its no-regression gate: vectorised paths must
not be slower than their scalar references, sorting must reduce modeled
transactions and batched sync must not add PCIe transfers.

``run_trace`` exercises the observability layer (:mod:`repro.obs`): a
batch-engine run with tracing off (explicit ``NULL_OBS``) and the same
run with a live :class:`~repro.obs.Observability` bundle attached,
measuring the tracing overhead and exporting the Chrome-trace-event
JSON (Perfetto-loadable); :func:`trace_gate_failures` is its gate.
That tracing never changes results or modeled counters is a tier-1
test (``tests/test_obs.py``), and CI validates the exported trace with
``python -m repro.obs.validate``.

``python -m repro.bench.gates [--smoke] wallclock trace`` runs both
gates and writes ``BENCH_pr2.json``, ``BENCH_pr4.json`` and the
Perfetto-loadable ``BENCH_pr4.trace.json``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.batching import BatchingEngine, measure_sorted_delta
from repro.core.buckets import iter_buckets
from repro.core.hbtree import SYNC_NODE_OVERHEAD_NS, HBPlusTree
from repro.core.update import AsyncBatchUpdater, SyncUpdater
from repro.faults import FaultError
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset, generate_skewed_queries
from repro.workloads.queries import make_insert_batch, make_point_queries

#: a vectorised path slower than its scalar reference by more than this
#: factor fails the gate
MAX_SLOWDOWN = 1.5

#: tracing may not inflate the batch engine's wall-clock past this
#: factor (generous: span bodies are microseconds next to millisecond
#: buckets, but smoke runs on loaded CI hosts are noisy)
MAX_TRACE_OVERHEAD = 1.5


def time_best_ns(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-N wall-clock time of ``fn`` in nanoseconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return best


def pack_i_segment_scalar(tree: HBPlusTree) -> np.ndarray:
    """Per-node packing loop of :meth:`HBPlusTree.pack_i_segment`: the
    equivalence and speedup baseline of the vectorised packer."""
    cpu = tree.cpu_tree
    kpl = tree.spec.keys_per_line
    fanout = cpu.fanout
    stride = tree.node_stride
    flat = np.zeros((cpu.upper.count + cpu.last.count) * stride,
                    dtype=np.uint64)

    def pack_one(pool, node):
        keys = pool.keys[node].copy()
        size = max(1, int(pool.size[node]))
        keys[size - 1] = tree.spec.max_value
        out = np.empty(stride, dtype=np.uint64)
        out[:kpl] = keys.reshape(kpl, kpl)[:, -1].astype(np.uint64)
        out[kpl: kpl + fanout] = keys.astype(np.uint64)
        out[kpl + fanout:] = pool.refs[node].astype(np.uint64)
        return out

    nodes = [(cpu.upper, n) for n in range(cpu.upper.count)]
    nodes += [(cpu.last, n) for n in range(cpu.last.count)]
    for slot, (pool, node) in enumerate(nodes):
        flat[slot * stride: (slot + 1) * stride] = pack_one(pool, node)
    return flat


def sync_node(tree: HBPlusTree, node: int) -> float:
    """Push last-level inner node ``node`` to ``tree``'s GPU mirror
    (the per-node synchronizing thread of section 5.6); returns the
    transfer ns.

    Falls back to a full mirror rebuild when the node lies past the
    mirrored capacity (new nodes from splits).
    """
    stride = tree.node_stride
    slot = tree.last_base + node
    if (slot + 1) * stride > tree.iseg_buffer.array.size:
        return tree.mirror_i_segment()
    packed = tree._pack_nodes(tree.cpu_tree.last, np.asarray([node]))[0]
    was_stale = tree.mirror_stale
    tree.mirror_stale = True
    t = tree.push_mirror_rows(slot, slot + 1, packed)
    tree.mirror_stale = was_stale
    return t


class PerNodeSyncUpdater(SyncUpdater):
    """The synchronized method with the original synchronizing thread:
    one push per modified last-level node as each op lands, and one
    mirror rebuild at the end after any split, merge or faulted push.
    The baseline the batched dirty-set sync is gated against."""

    def _write_and_sync(self, stats, keys, values, deletes):
        tree = self.tree
        cpu_tree = tree.cpu_tree
        ops = [("upsert", int(k), int(v)) for k, v in zip(keys, values)]
        ops += [("delete", int(k), 0) for k in deletes]
        # one batch descent over the whole op stream: the ids are exact
        # while the structure holds, and any structural change triggers
        # the full mirror rebuild below, which restores consistency
        all_op_keys = np.concatenate([keys, deletes])
        op_nodes = (
            cpu_tree.descend_batch(all_op_keys)[0]
            if len(all_op_keys)
            else np.empty(0, dtype=np.int64)
        )
        structural = 0
        for (op, key, value), node in zip(ops, op_nodes.tolist()):
            height_before = cpu_tree.height
            leaves_before = cpu_tree.leaves.count
            if op == "upsert":
                cpu_tree.insert(key, value)
            else:
                cpu_tree.delete(key)
            stats.applied += 1
            if (cpu_tree.leaves.count != leaves_before
                    or cpu_tree.height != height_before):
                structural += 1
                continue
            try:
                sync_node(tree, node)
                stats.synced_nodes += 1
            except FaultError:
                # the push aborted mid-flight; the mirror is stale for
                # this node — repair with the full rebuild below
                stats.sync_faults += 1
                structural += 1
        push_ns = stats.synced_nodes * (
            tree.push_ns() + SYNC_NODE_OVERHEAD_NS
        )
        rebuild_ns = tree.mirror_i_segment() if structural else 0.0
        return push_ns, rebuild_ns


def arrival_order_transactions(engine: BatchingEngine, queries) -> int:
    """Modeled GPU transactions ``engine``'s buckets of ``queries``
    cost in arrival order, under the engine's kernel: the unsorted
    baseline of what :meth:`BatchingEngine.lookup_batch` charges."""
    tree = engine.tree
    return sum(
        tree.modeled_transactions(bucket, kernel=engine.kernel)
        for bucket in iter_buckets(tree.spec.coerce(queries),
                                   engine.bucket_size)
    )


def _bench_build(keys, values, machine) -> Dict[str, Any]:
    t0 = time.perf_counter_ns()
    tree = HBPlusTree(keys, values, machine=machine)
    build_ns = time.perf_counter_ns() - t0
    return {
        "tree": tree,
        "result": {
            "keys": int(len(keys)),
            "build_wall_ns": float(build_ns),
            "height": int(tree.height),
            "inner_nodes": int(
                tree.cpu_tree.upper.count + tree.cpu_tree.last.count
            ),
        },
    }


def _bench_mirror(tree: HBPlusTree, repeats: int) -> Dict[str, Any]:
    pack_vec_ns = time_best_ns(tree.pack_i_segment, repeats)
    pack_scalar_ns = time_best_ns(lambda: pack_i_segment_scalar(tree),
                                  repeats)
    mirror_ns = time_best_ns(tree.mirror_i_segment, repeats)
    return {
        "pack_vectorized_wall_ns": pack_vec_ns,
        "pack_scalar_wall_ns": pack_scalar_ns,
        "pack_speedup": pack_scalar_ns / max(1.0, pack_vec_ns),
        "mirror_build_wall_ns": mirror_ns,
    }


def _bench_lookup(tree: HBPlusTree, queries, zipf_queries,
                  repeats: int) -> Dict[str, Any]:
    engine = BatchingEngine(tree)
    naive_ns = time_best_ns(lambda: tree.lookup_batch(queries), repeats)
    sorted_ns = time_best_ns(lambda: engine.lookup_batch(queries), repeats)
    delta = measure_sorted_delta(tree, zipf_queries)
    skew_engine = BatchingEngine(tree)
    skew_engine.lookup_batch(zipf_queries)
    skew = skew_engine.stats
    baseline = arrival_order_transactions(skew_engine, zipf_queries)
    return {
        "queries": int(len(queries)),
        "naive_lookup_wall_ns": naive_ns,
        "sorted_lookup_wall_ns": sorted_ns,
        "zipf": {
            "queries": delta.queries,
            "unique": delta.unique,
            "sorted_transactions_per_query": delta.sorted_per_query,
            "unsorted_transactions_per_query": delta.unsorted_per_query,
            "transaction_reduction": delta.gain,
            "engine_transactions_per_query": skew.transactions_per_query,
            "engine_baseline_transactions_per_query":
                baseline / skew.queries if skew.queries else 0.0,
            "engine_sorted_gain":
                1.0 - skew.transactions / baseline if baseline > 0 else 0.0,
            "duplicate_fraction": skew.duplicate_fraction,
        },
    }


def _bench_update(keys, values, machine, batch_size: int) -> Dict[str, Any]:
    upd_keys, upd_vals = make_insert_batch(keys, batch_size, 64, seed=97)

    tree = HBPlusTree(keys, values, machine=machine, fill=0.7)
    t0 = time.perf_counter_ns()
    async_stats = AsyncBatchUpdater(tree).apply(upd_keys, upd_vals)
    async_ns = time.perf_counter_ns() - t0

    tree_b = HBPlusTree(keys, values, machine=machine, fill=0.7)
    tree_b.link.stats.reset()
    t0 = time.perf_counter_ns()
    sync_b = SyncUpdater(tree_b).apply(upd_keys, upd_vals)
    sync_batched_ns = time.perf_counter_ns() - t0
    batched_transfers = tree_b.link.stats.transfers

    tree_p = HBPlusTree(keys, values, machine=machine, fill=0.7)
    tree_p.link.stats.reset()
    t0 = time.perf_counter_ns()
    sync_p = PerNodeSyncUpdater(tree_p).apply(upd_keys, upd_vals)
    sync_pernode_ns = time.perf_counter_ns() - t0
    pernode_transfers = tree_p.link.stats.transfers

    return {
        "batch_size": int(batch_size),
        "async_wall_ns": float(async_ns),
        "async_modeled_ns": async_stats.total_ns,
        "async_deferred": int(async_stats.deferred),
        "sync_batched_wall_ns": float(sync_batched_ns),
        "sync_batched_modeled_ns": sync_b.total_ns,
        "sync_batched_pcie_transfers": int(batched_transfers),
        "sync_batched_nodes": int(sync_b.synced_nodes),
        "sync_pernode_wall_ns": float(sync_pernode_ns),
        "sync_pernode_modeled_ns": sync_p.total_ns,
        "sync_pernode_pcie_transfers": int(pernode_transfers),
        "sync_pernode_nodes": int(sync_p.synced_nodes),
    }


def _bench_touch(tree: HBPlusTree, n_touches: int,
                 repeats: int) -> Dict[str, Any]:
    cpu = tree.cpu_tree
    cpu._ensure_segments()
    rng = np.random.default_rng(13)
    total_lines = cpu.leaves.count * cpu.leaves.lines_per_leaf
    idx = rng.integers(0, total_lines, size=n_touches)

    def scalar():
        tree.mem.flush()
        for i in idx.tolist():
            tree.mem.touch_line(cpu.l_segment, int(i))

    def batched():
        tree.mem.flush()
        tree.mem.touch_lines(cpu.l_segment, idx)

    scalar_ns = time_best_ns(scalar, repeats)
    batched_ns = time_best_ns(batched, repeats)
    return {
        "touches": int(n_touches),
        "scalar_wall_ns": scalar_ns,
        "batched_wall_ns": batched_ns,
        "speedup": scalar_ns / max(1.0, batched_ns),
    }


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def run_trace(smoke: bool = False, trace_path: str = None) -> Dict[str, Any]:
    """Benchmark the observability layer; returns the BENCH_pr4 payload.

    Runs the batch engine over the same tree and query stream,
    alternating untraced runs (explicit ``NULL_OBS`` override, tree
    detached) with traced runs (a live
    :class:`~repro.obs.Observability` bundle attached to the tree).
    The report records

    * ``overhead_ratio`` — the median traced / untraced wall-clock
      ratio over alternating pairs of runs (``untraced_wall_ns`` and
      ``traced_wall_ns`` are each side's best),
    * ``trace`` — event and span counts, and the exported file path
      when ``trace_path`` is given,
    * ``metrics`` — a sample of the unified registry snapshot
      (``collect_all`` over tree + engine).
    """
    from repro.obs import NULL_OBS, Observability
    from repro.obs.export import collect_all

    if smoke:
        n_keys, n_queries, bucket = 1 << 15, 1 << 13, 1 << 10
    else:
        n_keys, n_queries, bucket = 1 << 20, 1 << 18, 1 << 14
    repeats = 5
    machine = machine_m1()
    keys, values = generate_dataset(n_keys, seed=1234)
    queries = make_point_queries(keys, n_queries, seed=77)
    tree = HBPlusTree(keys, values, machine=machine)

    plain = BatchingEngine(tree, bucket_size=bucket, obs=NULL_OBS)
    # follows the tree's bundle dynamically
    traced = BatchingEngine(tree, bucket_size=bucket)
    obs = Observability()

    def timed(engine):
        tree.device.reset_counters()
        t0 = time.perf_counter_ns()
        engine.lookup_batch(queries)
        return float(time.perf_counter_ns() - t0)

    # untraced and traced runs alternate, and the overhead is the median
    # of the pairs' ratios: neighbouring runs share the host's state, so
    # a stall or a slow phase of the host moves one pair, not the result
    ratios = []
    plain_ns = traced_ns = float("inf")
    for _ in range(repeats):
        tree.attach_obs(NULL_OBS)
        p_ns = timed(plain)
        tree.attach_obs(obs)
        obs.reset()  # keep only the final repeat's events in the trace
        t_ns = timed(traced)
        ratios.append(t_ns / max(1.0, p_ns))
        plain_ns = min(plain_ns, p_ns)
        traced_ns = min(traced_ns, t_ns)

    metrics_snapshot = collect_all(
        obs.metrics, tree=tree, engine=traced, engine_label="batch"
    )
    report: Dict[str, Any] = {
        "benchmark": "trace",
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "cpu_count": available_cpus(),
        "keys": int(n_keys),
        "queries": int(n_queries),
        "bucket_size": int(bucket),
        "untraced_wall_ns": plain_ns,
        "traced_wall_ns": traced_ns,
        "overhead_ratio": float(np.median(ratios)),
        "trace": {
            "events": len(obs.tracer.events),
            "spans": obs.tracer.span_count(),
            "path": trace_path,
        },
        "metrics": metrics_snapshot,
    }
    if trace_path is not None:
        obs.tracer.write(trace_path)
    return report


def run_wallclock(smoke: bool = False) -> Dict[str, Any]:
    """Run every wall-clock benchmark; returns the BENCH_pr2 payload.

    ``smoke`` shrinks the dataset so CI finishes in seconds; the full
    run sizes the tree past 10k inner nodes and the bulk lookup past
    100k queries (the PR's acceptance scales).
    """
    if smoke:
        n_keys, n_queries, batch = 1 << 15, 1 << 13, 512
    else:
        n_keys, n_queries, batch = 1 << 22, 1 << 17, 4096
    repeats = 2 if smoke else 3
    machine = machine_m1()
    keys, values = generate_dataset(n_keys, seed=1234)
    queries = make_point_queries(keys, n_queries, seed=77)
    zipf_queries = generate_skewed_queries("zipf", n_queries, seed=19)

    built = _bench_build(keys, values, machine)
    tree = built["tree"]
    report: Dict[str, Any] = {
        "benchmark": "wallclock",
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "build": built["result"],
        "mirror": _bench_mirror(tree, repeats),
        "lookup": _bench_lookup(tree, queries, zipf_queries, repeats),
        "update": _bench_update(keys, values, machine, batch),
        "touch": _bench_touch(tree, min(n_queries, 1 << 14), repeats),
    }
    return report


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """The regression gate: empty list when the report passes."""
    mirror = report["mirror"]
    touch = report["touch"]
    zipf = report["lookup"]["zipf"]
    update = report["update"]
    failures = []
    if mirror["pack_speedup"] < 1.0 / MAX_SLOWDOWN:
        failures.append(
            f"vectorised pack_i_segment is {1 / mirror['pack_speedup']:.2f}x "
            f"slower than the scalar loop (limit {MAX_SLOWDOWN}x)"
        )
    if touch["speedup"] < 1.0 / MAX_SLOWDOWN:
        failures.append(
            f"batched touch_lines is {1 / touch['speedup']:.2f}x slower "
            f"than the per-line loop (limit {MAX_SLOWDOWN}x)"
        )
    if zipf["transaction_reduction"] <= 0.0:
        failures.append(
            "sorting a zipf bucket did not reduce modeled transactions"
        )
    if (update["sync_batched_pcie_transfers"]
            > update["sync_pernode_pcie_transfers"]):
        failures.append(
            "batched mirror sync issued more PCIe transfers than per-node"
        )
    return failures


def trace_gate_failures(report: Dict[str, Any]) -> List[str]:
    """The observability gate: empty list when the report passes."""
    failures = []
    if report["overhead_ratio"] > MAX_TRACE_OVERHEAD:
        failures.append(
            f"tracing overhead {report['overhead_ratio']:.2f}x exceeds "
            f"the {MAX_TRACE_OVERHEAD}x bound"
        )
    return failures
