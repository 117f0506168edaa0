"""Fig 17 — range query throughput (section 6.4).

Range queries matching 1-32 keys on a 128M-tuple dataset (scaled: 2M).
Expected shape: as matches grow, leaf scanning dominates, implicit and
regular versions converge, and the HB+-tree's advantage over the CPU
tree shrinks from >80% (up to 8 matches) to ~22% (32 matches).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bench.figures.common import dataset_and_queries, fresh_mem, paper_n
from repro.bench.harness import ExperimentTable
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.pipeline import BucketStrategy, strategy_throughput_qps
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.platform.configs import MachineConfig, machine_m1
from repro.platform.costmodel import (
    CpuCostModel,
    CpuQueryProfile,
    hybrid_bucket_costs,
)
from repro.workloads.queries import make_range_queries

MATCHES = [1, 2, 4, 8, 16, 32]


def _cpu_range_profile(tree: ImplicitCpuBPlusTree, ranges) -> CpuQueryProfile:
    """Instrumented range execution -> per-query memory profile."""
    tree.mem.reset_counters()
    for lo, hi in ranges:
        tree.range_query(lo, hi)
    counters = tree.mem.counters
    counters.queries = len(ranges)
    lines = counters.line_accesses / len(ranges)
    return CpuQueryProfile.from_counters(
        counters, node_searches_per_query=lines
    )


def _leaf_scan_profile(
    tree: ImplicitCpuBPlusTree, ranges
) -> CpuQueryProfile:
    """Profile of only the leaf-scanning stage (the HB+ CPU share)."""
    mem = tree.mem
    starts = [tree._descend(lo, instrument=False) for lo, _hi in ranges]
    mem.reset_counters()
    pairs = tree.spec.leaf_pairs_per_line
    for (lo, hi), leaf in zip(ranges, starts):
        # scan forward until the range upper bound passes
        while leaf < tree.num_leaves:
            mem.touch_line(tree.l_segment, leaf)
            row_last = int(tree.leaf_keys[leaf, pairs - 1])
            if row_last >= hi or row_last == tree.spec.max_value:
                break
            leaf += 1
    counters = mem.counters
    counters.queries = len(ranges)
    lines = counters.line_accesses / len(ranges)
    return CpuQueryProfile.from_counters(counters, node_searches_per_query=lines)


def run(machine: Optional[MachineConfig] = None, full: bool = False,
        key_bits: int = 64, n: int = 1 << 21) -> ExperimentTable:
    machine = machine or machine_m1()
    if not full:
        n = 1 << 18
    table = ExperimentTable(
        "fig17", f"range query throughput (n={paper_n(n)} paper-scale)"
    )
    keys, values, _q = dataset_and_queries(n, key_bits)
    bucket = machine.bucket_size
    cpu_tree = ImplicitCpuBPlusTree(
        keys, values, key_bits=key_bits, mem=fresh_mem(machine)
    )
    hb_tree = ImplicitHBPlusTree(
        keys, values, machine=machine, key_bits=key_bits,
        mem=fresh_mem(machine),
    )
    model = CpuCostModel(machine.cpu)
    for matches in MATCHES:
        ranges = make_range_queries(keys, 512, matches)
        cpu_tree.mem.flush()
        profile = _cpu_range_profile(cpu_tree, ranges)
        # warm pass then measure
        profile = _cpu_range_profile(cpu_tree, ranges)
        cpu_qps = model.throughput_qps(profile)

        hb_tree.mem.flush()
        leaf_profile = _leaf_scan_profile(hb_tree.cpu_tree, ranges)
        leaf_profile = _leaf_scan_profile(hb_tree.cpu_tree, ranges)
        sample = np.asarray([lo for lo, _ in ranges], dtype=hb_tree.spec.dtype)
        gpu_result = hb_tree.gpu_search_bucket(sample)
        costs = hybrid_bucket_costs(
            machine,
            hb_tree.spec,
            bucket,
            gpu_transactions_per_query=gpu_result.transactions_per_query,
            gpu_levels=float(hb_tree.gpu_depth),
            cpu_leaf_profile=leaf_profile,
        )
        hb_qps = strategy_throughput_qps(
            costs, BucketStrategy.DOUBLE_BUFFERED, bucket
        )
        table.add(
            matches=matches,
            cpu_mqps=round(cpu_qps / 1e6, 2),
            hb_mqps=round(hb_qps / 1e6, 2),
            hb_advantage_pct=round(100 * (hb_qps / cpu_qps - 1), 1),
        )
    table.note(
        "paper: HB+ >80% faster up to 8 matches, advantage falls to 22% "
        "at 32 matches as leaf scanning dominates"
    )
    return table
