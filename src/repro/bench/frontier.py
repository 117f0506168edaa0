"""Benchmark of the level-wise frontier kernel + kernel selection.

Answers the two questions DESIGN.md §13 leaves to measurement:

1. **Does the frontier schedule actually save memory transactions?**
   On *uniform* traffic — where PR 2's sort+dedup barely helps because
   nearly every query in a bucket is distinct — the per-query kernel
   scatters concurrent queries across the whole I-segment each step,
   while the frontier kernel sweeps each level once.  The report
   measures modeled transactions/query through
   :class:`~repro.core.batching.BatchingEngine` with ``kernel=`` pinned
   each way, on the same tree and query stream; the gate requires the
   frontier to be *strictly* cheaper on uniform traffic at the paper's
   default geometry, and no worse than PR 2's 0.013 txns/query on the
   Zipf workload (where dedup already removed almost everything).

2. **Does discovery pick the cheaper kernel?**  The report runs
   Algorithm 1 with the kernel dimension open
   (:meth:`~repro.core.load_balance.SplitCostModel.discover`),
   cross-checks the committed (kernel, D, R) against an exhaustive
   per-kernel argmin, and checks that the adaptive controller commits
   the same kernel.

That both kernels return the same leaves and launch the same buckets
is a tier-1 test (``tests/test_frontier.py``).

``run_frontier`` returns one JSON-serialisable dict and
:func:`gate_failures` is its gate; ``python -m repro.bench.gates
frontier`` runs both and writes ``BENCH_pr7.json``.
All gated quantities are modeled (transaction counts, Equation-4
costs), so the gate is host-independent.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.batching import BatchingEngine
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.gpusim.kernels.frontier_search import FRONTIER, KERNELS, PER_QUERY
from repro.gpusim.kernels.implicit_search import implicit_descend
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset, generate_skewed_queries
from repro.workloads.queries import make_point_queries

#: PR 2's measured Zipf floor (BENCH_pr2.json, full run): the sorted
#: batch engine's 0.013 modeled transactions/query — the frontier
#: kernel must not regress it
ZIPF_TXNS_PER_QUERY_FLOOR = 0.013


def _engine_run(keys, values, machine, queries, bucket: int,
                kernel: str) -> Dict[str, Any]:
    """One counted engine pass with ``kernel`` pinned; fresh tree so
    device counters are exclusively this run's."""
    tree = ImplicitHBPlusTree(keys, values, machine=machine)
    engine = BatchingEngine(tree, bucket_size=bucket, kernel=kernel)
    t0 = time.perf_counter_ns()
    engine.lookup_batch(queries)
    wall_ns = time.perf_counter_ns() - t0
    return {
        "kernel": kernel,
        "transactions": int(engine.stats.transactions),
        "transactions_per_query": engine.stats.transactions_per_query,
        "kernel_launches": int(tree.device.kernel_launches),
        "wall_ns": float(wall_ns),
    }


def _workload_compare(keys, values, machine, queries, bucket: int,
                      label: str) -> Dict[str, Any]:
    """Both kernels over one workload: per-kernel counts."""
    runs = {
        kern: _engine_run(keys, values, machine, queries, bucket, kern)
        for kern in KERNELS
    }
    per_query, frontier = runs["per_query"], runs["frontier"]
    row: Dict[str, Any] = {
        "workload": label,
        "queries": int(len(queries)),
        "per_query": per_query,
        "frontier": frontier,
        "transaction_reduction": (
            1.0 - frontier["transactions"] / per_query["transactions"]
            if per_query["transactions"] else 0.0
        ),
    }
    return row


def run_frontier(smoke: bool = False) -> Dict[str, Any]:
    """Frontier vs per-query kernel; returns the BENCH_pr7 payload."""
    if smoke:
        n_keys, n_queries, bucket = 1 << 15, 1 << 14, 1 << 12
    else:
        n_keys, n_queries, bucket = 1 << 20, 1 << 17, 1 << 14
    machine = machine_m1()
    keys, values = generate_dataset(n_keys, seed=1234)
    uniform = make_point_queries(keys, n_queries, seed=77)
    zipf = generate_skewed_queries("zipf", n_queries, seed=19)

    workloads = [
        _workload_compare(keys, values, machine, uniform, bucket, "uniform"),
        _workload_compare(keys, values, machine, zipf, bucket, "zipf"),
    ]

    # --- raw kernel sweep: one sorted-unique bucket, no engine ------------
    # the one implicit descent under each kernel's coalescing window
    tree = ImplicitHBPlusTree(keys, values, machine=machine)
    probe = np.unique(uniform)[:bucket]
    zeros = np.zeros(len(probe), dtype=np.int64)
    args = (
        tree.iseg_buffer.array, tree.level_offsets, tree.level_sizes,
        tree.gpu_depth, tree.cpu_tree.fanout, probe, zeros, zeros,
    )
    t0 = time.perf_counter_ns()
    pq_txns = implicit_descend(
        *args, tree.coalescing_window(PER_QUERY, len(probe))
    )[1]
    pq_wall = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    fr_txns = implicit_descend(
        *args, tree.coalescing_window(FRONTIER, len(probe))
    )[1]
    fr_wall = time.perf_counter_ns() - t0
    single_bucket = {
        "bucket_queries": int(len(probe)),
        "gpu_depth": int(tree.gpu_depth),
        "fanout": int(tree.cpu_tree.fanout),
        "per_query_transactions": int(pq_txns),
        "frontier_transactions": int(fr_txns),
        "per_query_wall_ns": float(pq_wall),
        "frontier_wall_ns": float(fr_wall),
    }

    # --- kernel selection: Algorithm 1 with the kernel dimension open -----
    balancer = LoadBalancer(tree, bucket_size=bucket, sort_batches=True)
    result = balancer.discover()
    exhaustive = {}
    for kern in KERNELS:
        _samples, best = balancer._discover_kernel(kern, None)
        exhaustive[kern] = {
            "depth": int(best[0]),
            "ratio": float(best[1]),
            "cost_ns": float(max(best[2], best[3])),
        }
    cheapest = min(exhaustive, key=lambda k: exhaustive[k]["cost_ns"])
    controller = AdaptiveController.for_tree(tree, bucket_size=bucket)

    return {
        "benchmark": "frontier",
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "keys": int(n_keys),
        "bucket_size": int(bucket),
        "tree_height": int(tree.cpu_tree.height),
        "zipf_floor_txns_per_query": ZIPF_TXNS_PER_QUERY_FLOOR,
        "workloads": workloads,
        "single_bucket": single_bucket,
        "selection": {
            "committed": {
                "kernel": result.kernel,
                "depth": int(result.depth),
                "ratio": float(result.ratio),
                "cost_ns": float(result.cost_ns),
            },
            "exhaustive": exhaustive,
            "cheapest_kernel": cheapest,
            "adaptive_kernel": controller.kernel,
        },
    }


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """The regression gate: empty list when the report passes."""
    failures = []
    rows = {row["workload"]: row for row in report["workloads"]}
    uniform, zipf = rows["uniform"], rows["zipf"]
    if (uniform["frontier"]["transactions"]
            >= uniform["per_query"]["transactions"]):
        failures.append(
            "uniform: frontier kernel is not strictly cheaper "
            f"({uniform['frontier']['transactions']} vs "
            f"{uniform['per_query']['transactions']} transactions)"
        )
    if (zipf["frontier"]["transactions"]
            > zipf["per_query"]["transactions"]):
        failures.append("zipf: frontier kernel costs more than per-query")
    floor = report["zipf_floor_txns_per_query"]
    if zipf["frontier"]["transactions_per_query"] > floor:
        failures.append(
            f"zipf: frontier {zipf['frontier']['transactions_per_query']:.4f}"
            f" txns/query regresses the {floor} floor"
        )
    sb = report["single_bucket"]
    if sb["frontier_transactions"] >= sb["per_query_transactions"]:
        failures.append(
            "single bucket: frontier not strictly cheaper "
            f"({sb['frontier_transactions']} vs "
            f"{sb['per_query_transactions']})"
        )
    sel = report["selection"]
    if sel["committed"]["kernel"] != sel["cheapest_kernel"]:
        failures.append(
            f"discovery committed {sel['committed']['kernel']} but "
            f"{sel['cheapest_kernel']} is cheaper"
        )
    committed_cost = sel["committed"]["cost_ns"]
    best_cost = sel["exhaustive"][sel["cheapest_kernel"]]["cost_ns"]
    if committed_cost > best_cost * (1 + 1e-9):
        failures.append(
            f"discovery cost {committed_cost:.0f}ns exceeds the "
            f"exhaustive optimum {best_cost:.0f}ns"
        )
    if sel["adaptive_kernel"] != sel["committed"]["kernel"]:
        failures.append(
            "AdaptiveController committed a different kernel than "
            "offline discovery on the same profile"
        )
    return failures
