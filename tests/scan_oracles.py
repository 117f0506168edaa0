"""Slot-by-slot range scans: the test oracles of the vectorised scans.

``range_query_scalar(tree, lo, hi)`` is the straightforward form of
``range_query`` on the regular, gapped and implicit CPU trees: one
Python iteration per visited slot.  The vectorised scans must return
the same pairs and leave the same modeled cache counters.  The regular
walk is the CPU descent followed by the ``scan`` gate's leaf-chain
baseline, :func:`repro.bench.scan.range_scan_from_scalar`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.scan import range_scan_from_scalar
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree


def _implicit_range_query_scalar(tree, lo: int,
                                 hi: int) -> List[Tuple[int, int]]:
    leaf = tree._descend(int(lo), instrument=True)
    counters = tree.mem.counters if tree.mem else None
    results: List[Tuple[int, int]] = []
    sentinel = tree.spec.max_value
    while leaf < tree.num_leaves:
        if tree.mem is not None and tree.l_segment is not None:
            tree.mem.touch_line(tree.l_segment, leaf)
        row = tree.leaf_keys[leaf]
        for j in range(row.shape[0]):
            key = int(row[j])
            if key == sentinel or key > hi:
                if counters is not None:
                    counters.queries += 1
                return results
            if key >= lo:
                results.append((key, int(tree.leaf_values[leaf, j])))
        leaf += 1
    if counters is not None:
        counters.queries += 1
    return results


def range_query_scalar(tree, lo: int, hi: int) -> List[Tuple[int, int]]:
    """Every stored ``(key, value)`` with ``lo <= key <= hi``, in key
    order, walked one slot at a time."""
    if lo > hi:
        return []
    if isinstance(tree, ImplicitCpuBPlusTree):
        return _implicit_range_query_scalar(tree, lo, hi)
    if tree.num_tuples == 0:
        return []
    node = tree._descend(int(lo), instrument=True)[0]
    return range_scan_from_scalar(tree, node, lo, hi)
