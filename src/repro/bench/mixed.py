"""Benchmark of the gapped-leaf optimistic mixed engine (BENCH_pr8).

Answers the three questions DESIGN.md §14 leaves to measurement:

1. **Does the optimistic engine win the mixed workload?**  The report
   runs the same :class:`~repro.workloads.queries.QueryMix` through the
   appendix-B.3 baseline (:class:`~repro.core.ConcurrentQueryEngine`,
   both the async and sync mirror methods) and through
   :class:`~repro.core.OptimisticMixedEngine` on a gapped tree, at the
   paper's 95/5 and 50/50 read/write ratios.  The gate requires the
   optimistic engine to beat *both* baseline methods on modeled
   throughput at *both* ratios.

2. **Is it still exact?**  Every run is checked bit-for-bit against a
   sequential reference: a fresh ungapped tree that applies the same
   mix one operation at a time.  Both the engine's own search results
   and the post-run GPU-mirror lookups (the full
   ``gpu_search_bucket`` → ``cpu_finish_bucket`` path) must match —
   including one run under an injected :class:`~repro.faults.FaultPlan`
   that exercises the sync retry/rebuild ladder.

3. **Do in-place gap writes actually shrink mirror maintenance?**  The
   optimistic engine pushes only version-dirty nodes through ranged
   :meth:`~repro.core.hbtree.HBPlusTree.sync_nodes` transfers.  At
   95/5 the dirty set is sparse and the gate requires the pushed bytes
   to stay under 0.75x the full I-segment rebuild; at 50/50 uniform
   fresh keys touch essentially every leaf, so the gate only requires
   no-worse-than-rebuild (the ranged path must degrade gracefully,
   not lose).

``run_mixed`` returns one JSON-serialisable dict and
:func:`gate_failures` is its gate; ``python -m repro.bench.gates mixed``
runs both and writes ``BENCH_pr8.json``.  All gated
quantities are modeled (scheduler makespans, transfer bytes), so the
gate is host-independent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.mixed import ConcurrentQueryEngine, OptimisticMixedEngine
from repro.faults import FaultInjector, FaultPlan
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import QueryMix, make_update_mix

#: leaf fill the gapped tree is bulk-built at — the BS-tree sweet spot
#: (enough slack that most inserts land in a gap, little enough that
#: the tree stays within ~1.5x the compact leaf count)
GAPPED_FILL = 0.70

#: the 95/5 mirror-bytes gate: ranged dirty-node sync must push less
#: than this fraction of the full I-segment rebuild
SPARSE_SYNC_BYTES_RATIO = 0.75


def _apply_sequentially(tree: HBPlusTree, mix: QueryMix) -> np.ndarray:
    """The ground truth: one ungapped tree, one op at a time, then a
    full mirror rebuild; returns the search answers in stream order."""
    update_iter = iter(zip(mix.update_keys.tolist(),
                           mix.update_values.tolist()))
    delete_iter = iter(mix.delete_keys.tolist())
    is_delete = (
        mix.is_delete
        if mix.is_delete is not None
        else np.zeros(len(mix.is_update), dtype=bool)
    )
    for is_update, is_del in zip(mix.is_update.tolist(), is_delete.tolist()):
        if is_del:
            tree.cpu_tree.delete(int(next(delete_iter)))
        elif is_update:
            key, value = next(update_iter)
            tree.cpu_tree.insert(int(key), int(value))
    tree.mirror_i_segment()
    return tree.cpu_tree.lookup_batch(mix.search_keys)


def _result_row(result) -> Dict[str, Any]:
    """The JSON view of one engine run (baseline or optimistic)."""
    row: Dict[str, Any] = {
        "method": result.method,
        "operations": int(result.schedule.operations),
        "makespan_ns": float(result.schedule.makespan_ns),
        "sync_transfer_ns": float(result.sync_transfer_ns),
        "total_ns": float(result.total_ns),
        "throughput_ops": float(result.throughput_ops),
    }
    for name in ("retries", "retry_ns", "dirty_nodes", "sync_transfers",
                 "sync_bytes", "sync_faults", "gap_writes", "shift_writes",
                 "splits"):
        value = getattr(result, name, None)
        if value is not None:
            row[name] = float(value) if name == "retry_ns" else int(value)
    rebuilt = getattr(result, "mirror_rebuilt", None)
    if rebuilt is not None:
        row["mirror_rebuilt"] = bool(rebuilt)
    return row


def _run_ratio(keys, values, machine, mix: QueryMix, label: str,
               update_ratio: float,
               plan: Optional[FaultPlan] = None) -> Dict[str, Any]:
    """One ratio: both baseline methods, the optimistic engine, and
    the sequential ground truth — each on its own fresh tree."""
    # sequential reference first: the answers every run must reproduce
    ref_tree = HBPlusTree(keys, values, machine=machine)
    truth = _apply_sequentially(ref_tree, mix)

    async_tree = HBPlusTree(keys, values, machine=machine)
    res_async = ConcurrentQueryEngine(async_tree).run(mix, method="async")
    sync_tree = HBPlusTree(keys, values, machine=machine)
    res_sync = ConcurrentQueryEngine(sync_tree).run(mix, method="sync")

    opt_tree = HBPlusTree(
        keys, values, machine=machine, gapped=True, fill=GAPPED_FILL
    )
    engine = OptimisticMixedEngine(opt_tree)
    if plan is not None:
        # attached after construction + cost sampling, so faults hit
        # exactly the engine's mirror maintenance under test
        opt_tree.attach_injector(FaultInjector(plan))
    res_opt = engine.run(mix)

    gap_stats = opt_tree.cpu_tree.gap_stats
    rebuild_bytes = opt_tree.i_segment_bytes
    row = {
        "ratio": label,
        "update_ratio": float(update_ratio),
        "delete_ratio": float(mix.delete_ratio),
        "operations": int(len(mix)),
        "faulted": plan is not None,
        "baseline_async": _result_row(res_async),
        "baseline_sync": _result_row(res_sync),
        "optimistic": _result_row(res_opt),
        "rebuild_bytes": int(rebuild_bytes),
        "sync_to_rebuild_bytes": (
            res_opt.sync_bytes / rebuild_bytes if rebuild_bytes else 0.0
        ),
        "gap_occupancy": float(opt_tree.cpu_tree.gap_occupancy()),
        "in_place_fraction": float(gap_stats.in_place_fraction),
        "speedup_vs_async": (
            res_opt.throughput_ops / res_async.throughput_ops
            if res_async.throughput_ops else float("inf")
        ),
        "speedup_vs_sync": (
            res_opt.throughput_ops / res_sync.throughput_ops
            if res_sync.throughput_ops else float("inf")
        ),
        "searches_bit_identical": bool(
            np.array_equal(res_opt.search_results, truth)
            and np.array_equal(res_async.search_results, truth)
            and np.array_equal(res_sync.search_results, truth)
        ),
        # the GPU-path check: the optimistic tree's mirror must answer
        # through gpu_search_bucket/cpu_finish_bucket exactly like the
        # sequentially-updated ungapped reference
        "mirror_bit_identical": bool(np.array_equal(
            opt_tree.lookup_batch(mix.search_keys),
            ref_tree.lookup_batch(mix.search_keys),
        )),
    }
    return row


def run_mixed(smoke: bool = False) -> Dict[str, Any]:
    """Optimistic vs baseline mixed engines; the BENCH_pr8 payload."""
    if smoke:
        n_keys, n_ops = 1 << 15, 1 << 12
    else:
        n_keys, n_ops = 1 << 17, 1 << 13
    machine = machine_m1()
    keys, values = generate_dataset(n_keys, seed=1234)

    ratios = [
        _run_ratio(
            keys, values, machine,
            make_update_mix(keys, n_ops, 0.05, seed=17), "95/5", 0.05,
        ),
        _run_ratio(
            keys, values, machine,
            make_update_mix(keys, n_ops, 0.50, seed=23), "50/50", 0.50,
        ),
    ]

    # the fault drill: deletes in the stream + a uniform GPU-side fault
    # plan aimed at the sync path; correctness must hold regardless of
    # how many transfers the retry/rebuild ladder had to absorb
    fault_mix = make_update_mix(
        keys, n_ops // 2, 0.10, seed=31, delete_ratio=0.05
    )
    fault_run = _run_ratio(
        keys, values, machine, fault_mix, "fault-drill", 0.10,
        plan=FaultPlan.uniform(0.05, seed=7),
    )

    return {
        "benchmark": "mixed",
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "keys": int(n_keys),
        "operations": int(n_ops),
        "gapped_fill": GAPPED_FILL,
        "sparse_sync_bytes_ratio": SPARSE_SYNC_BYTES_RATIO,
        "ratios": ratios,
        "fault_run": fault_run,
    }


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """The regression gate: empty list when the report passes."""
    failures: List[str] = []
    rows = {row["ratio"]: row for row in report["ratios"]}
    for label, row in rows.items():
        opt = row["optimistic"]
        for base_name in ("baseline_async", "baseline_sync"):
            base = row[base_name]
            if opt["throughput_ops"] <= base["throughput_ops"]:
                failures.append(
                    f"{label}: optimistic {opt['throughput_ops']:.3e} ops/s "
                    f"does not beat {base_name} "
                    f"{base['throughput_ops']:.3e} ops/s"
                )
        if not row["searches_bit_identical"]:
            failures.append(
                f"{label}: search results diverged from the sequential "
                "reference"
            )
        if not row["mirror_bit_identical"]:
            failures.append(
                f"{label}: GPU-mirror lookups diverged from the "
                "sequential reference"
            )

    sparse = rows["95/5"]
    ratio_cap = report["sparse_sync_bytes_ratio"]
    if sparse["optimistic"]["mirror_rebuilt"]:
        failures.append(
            "95/5: sparse updates forced a full mirror rebuild instead "
            "of ranged dirty-node sync"
        )
    if sparse["sync_to_rebuild_bytes"] >= ratio_cap:
        failures.append(
            f"95/5: ranged sync pushed {sparse['sync_to_rebuild_bytes']:.3f}"
            f"x the rebuild bytes (gate: < {ratio_cap})"
        )
    if sparse["in_place_fraction"] <= 0.0:
        failures.append("95/5: no insert landed in a gap")
    dense = rows["50/50"]
    if dense["sync_to_rebuild_bytes"] > 1.0 + 1e-9:
        failures.append(
            f"50/50: ranged sync pushed {dense['sync_to_rebuild_bytes']:.3f}"
            "x the rebuild bytes (gate: <= 1.0)"
        )

    fault = report["fault_run"]
    if not fault["searches_bit_identical"]:
        failures.append(
            "fault drill: search results diverged under the fault plan"
        )
    if not fault["mirror_bit_identical"]:
        failures.append(
            "fault drill: GPU-mirror lookups diverged under the fault plan"
        )
    return failures
