"""Benchmark of the gapped-leaf optimistic mixed engine (BENCH_pr8).

Answers the two questions DESIGN.md §14 leaves to measurement:

1. **Does the optimistic engine win the mixed workload?**  The report
   runs the same :class:`~repro.workloads.queries.QueryMix` through the
   appendix-B.3 baseline (:class:`~repro.core.ConcurrentQueryEngine`,
   both the async and sync mirror methods) and through
   :class:`~repro.core.OptimisticMixedEngine` on a gapped tree, at the
   paper's 95/5 and 50/50 read/write ratios.  The gate requires the
   optimistic engine to beat *both* baseline methods on modeled
   throughput at *both* ratios.

2. **Do in-place gap writes actually shrink mirror maintenance?**  The
   optimistic engine pushes only version-dirty nodes through ranged
   :meth:`~repro.core.hbtree.HBPlusTree.sync_nodes` transfers.  At
   95/5 the dirty set is sparse and the gate requires the pushed bytes
   to stay under 0.75x the full I-segment rebuild; at 50/50 uniform
   fresh keys touch essentially every leaf, so the gate only requires
   no-worse-than-rebuild (the ranged path must degrade gracefully,
   not lose).

That every engine answers what a sequential one-op-at-a-time tree
answers, through its searches and through the GPU mirror and under a
fault plan, is a tier-1 test (``tests/test_mixed.py``,
``tests/test_gapped.py``).

``run_mixed`` returns one JSON-serialisable dict and
:func:`gate_failures` is its gate; ``python -m repro.bench.gates mixed``
runs both and writes ``BENCH_pr8.json``.  All gated
quantities are modeled (scheduler makespans, transfer bytes), so the
gate is host-independent.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.hbtree import HBPlusTree
from repro.core.mixed import (
    ConcurrentQueryEngine,
    OptimisticMixedEngine,
    OptimisticRunResult,
)
from repro.obs.export import MIXED_COUNTERS
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
    for name in MIXED_COUNTERS:
        value = getattr(result, name, None)
        if value is not None:
            # as the type of the field's default: numpy scalars are not JSON
            row[name] = type(getattr(OptimisticRunResult, name))(value)
    return row


def _run_ratio(keys, values, machine, mix: QueryMix, label: str,
               update_ratio: float) -> Dict[str, Any]:
    """One ratio: both baseline methods and the optimistic engine,
    each on its own fresh tree."""
    async_tree = HBPlusTree(keys, values, machine=machine)
    res_async = ConcurrentQueryEngine(async_tree).run(mix, method="async")
    sync_tree = HBPlusTree(keys, values, machine=machine)
    res_sync = ConcurrentQueryEngine(sync_tree).run(mix, method="sync")

    opt_tree = HBPlusTree(
        keys, values, machine=machine, gapped=True, fill=GAPPED_FILL
    )
    res_opt = OptimisticMixedEngine(opt_tree).run(mix)

    gap_stats = opt_tree.cpu_tree.gap_stats
    rebuild_bytes = opt_tree.i_segment_bytes
    return {
        "ratio": label,
        "update_ratio": float(update_ratio),
        "delete_ratio": float(mix.delete_ratio),
        "operations": int(len(mix)),
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
    }


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

    return {
        "benchmark": "mixed",
        "mode": "smoke" if smoke else "full",
        "machine": machine.name,
        "keys": int(n_keys),
        "operations": int(n_ops),
        "gapped_fill": GAPPED_FILL,
        "sparse_sync_bytes_ratio": SPARSE_SYNC_BYTES_RATIO,
        "ratios": ratios,
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
    return failures
