"""Benchmark of the batched range-scan path (BENCH_pr9).

Answers the two questions DESIGN.md §15 leaves to measurement:

1. **Does the vectorised leaf-chain scan pay for itself?**  The gate
   requires the gap-mask-aware vectorised leaf scan
   (``range_scan_from``) to beat the scalar reference walk
   (:func:`range_scan_from_scalar`) by at least ``VECTOR_SPEEDUP_GATE``x
   wall-clock at 1K-tuple scans.  The start leaves are descended once
   outside the timed region: the descent is the same emulated-SIMD
   search on both sides (and on the GPU path it is the bucket
   machinery's job anyway), so timing it would only dilute the stage
   the gate is about.

2. **Is scan costing live in discovery?**  Algorithm 1 is run twice on
   the same profiled tree — once lookup-only, once with
   ``set_scan_profile(0.5, 1024)`` — and the gate requires the
   committed (D, R) to move (not merely the kernel: the scan term
   must change the split itself).

That every scan path answers exactly what the sequential
``range_query`` walk answers, with the same modeled counters, is a
tier-1 test (``tests/test_scan.py``).

``run_scan`` returns one JSON-serialisable dict and
:func:`gate_failures` is its gate; ``python -m repro.bench.gates scan``
runs both and writes ``BENCH_pr9.json``.  Gate 2 is fully modeled
(host-independent); gate 1 is the one wall-clock gate, with a margin
wide enough for noisy CI hosts.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.cpu.btree_regular import _NIL
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset

#: wall-clock factor the vectorised leaf scan must beat the scalar
#: walk by at 1K-tuple scans (measured headroom is an order of
#: magnitude beyond this; the margin absorbs CI-host noise)
VECTOR_SPEEDUP_GATE = 5.0

#: the scan profile the discovery gate prices (half the mix scanning,
#: 1K tuples per scan — the scan-heavy tenant shape)
SCAN_PROFILE = (0.5, 1024.0)


def range_scan_from_scalar(tree, node: int, lo: int,
                           hi: int) -> List[Tuple[int, int]]:
    """Slot-by-slot reference walk of a regular or gapped tree's
    ``range_scan_from``: the baseline gate 1 times the vectorised
    leaf-chain scan against, with the same results and counters.

    One Python iteration per visited slot, starting at big leaf
    ``node`` with no descent.  Like the vectorised scan it tolerates a
    start leaf at-or-before the true one: it keeps seeking ``lo`` leaf
    by leaf until a leaf holds a key at-or-after it.
    """
    if lo > hi or tree.num_tuples == 0:
        return []
    leaves = tree.leaves
    gaps = getattr(leaves, "gap", None)  # gapped leaves mask their gaps
    node = int(node)
    counters = tree.mem.counters if tree.mem else None
    p = tree.spec.leaf_pairs_per_line
    lo_t = tree.spec.dtype(lo)
    results: List[Tuple[int, int]] = []
    seeking = True
    while node != _NIL:
        size = int(leaves.size[node])
        if size:
            start = (int(np.searchsorted(leaves.keys[node, :size], lo_t))
                     if seeking else 0)
            if start < size:
                seeking = False
                touched_line = -1
                while start < size:
                    cur_line = start // p
                    if cur_line != touched_line:
                        tree._touch_leaf_line(node, cur_line)
                        touched_line = cur_line
                    key = int(leaves.keys[node, start])
                    if key > hi:
                        if counters is not None:
                            counters.queries += 1
                        return results
                    if gaps is None or not gaps[node, start]:
                        results.append(
                            (key, int(leaves.values[node, start]))
                        )
                    start += 1
        node = int(leaves.next[node])
    if counters is not None:
        counters.queries += 1
    return results


def _time_scans(fn, triples: List[Tuple[int, int, int]],
                repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for node, lo, hi in triples:
            fn(node, lo, hi)
        best = min(best, time.perf_counter() - t0)
    return best


def _speedup_row(keys, values, machine, scan_tuples: int,
                 n_scans: int, repeats: int) -> Dict[str, Any]:
    """Gate-1 row: scalar vs vectorised leaf scan wall-clock, from
    precomputed start leaves."""
    sk = np.sort(np.asarray(keys))
    rng = np.random.default_rng(31)
    starts = rng.integers(0, len(sk) - scan_tuples + 1, size=n_scans)
    pairs = [
        (int(sk[s]), int(sk[s + scan_tuples - 1])) for s in starts
    ]
    # two identically-built trees: the modeled cache is stateful, so
    # sharing one tree would hand the second run a warmed cache
    scalar_tree = HBPlusTree(keys, values, machine=machine).cpu_tree
    vector_tree = HBPlusTree(keys, values, machine=machine).cpu_tree
    # descend once, uninstrumented, outside the timed region — both
    # sides then scan the leaf chain from the same start leaf
    triples = [
        (scalar_tree._descend(lo, instrument=False)[0], lo, hi)
        for lo, hi in pairs
    ]
    scalar_s = _time_scans(
        lambda node, lo, hi: range_scan_from_scalar(scalar_tree, node, lo, hi),
        triples, repeats,
    )
    vector_s = _time_scans(vector_tree.range_scan_from, triples, repeats)
    return {
        "scan_tuples": scan_tuples,
        "scans": n_scans,
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
    }


def _discovery_row(keys, values, machine) -> Dict[str, Any]:
    """Gate-2 row: Algorithm 1 lookup-only vs scan-heavy."""
    tree = ImplicitHBPlusTree(keys, values, machine=machine)
    # at the machine's jumbo default bucket the GPU amortises its
    # launch cost so far that lookup-only discovery already sits at
    # the R binary-search floor; 4K buckets put the lookup-only
    # optimum in the interior, where the scan term has room to move it
    balancer = LoadBalancer(tree, bucket_size=4096)
    base = balancer.discover()
    balancer.set_scan_profile(*SCAN_PROFILE)
    scan = balancer.discover()
    balancer.set_scan_profile(0.0, 0.0)
    return {
        "lookup_only": {"depth": base.depth, "ratio": base.ratio,
                        "kernel": base.kernel},
        "scan_heavy": {"depth": scan.depth, "ratio": scan.ratio,
                       "kernel": scan.kernel},
        "scan_share": SCAN_PROFILE[0],
        "scan_length": SCAN_PROFILE[1],
        "split_moved": (base.depth, base.ratio)
        != (scan.depth, scan.ratio),
    }


def run_scan(smoke: bool = False) -> Dict[str, Any]:
    """The full PR-9 report (gates 1-2)."""
    machine = machine_m1()
    n_keys = 1 << 15 if smoke else 1 << 17
    repeats = 2 if smoke else 3
    speed_scans = 24 if smoke else 96
    keys, values = generate_dataset(n_keys, seed=21)
    return {
        "mode": "smoke" if smoke else "full",
        "machine": "m1",
        "keys": n_keys,
        "speedup": _speedup_row(keys, values, machine,
                                scan_tuples=1000,
                                n_scans=speed_scans, repeats=repeats),
        "discovery": _discovery_row(keys, values, machine),
    }


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """Every acceptance-gate violation in a ``run_scan`` report."""
    failures: List[str] = []
    sp = report["speedup"]
    if sp["speedup"] < VECTOR_SPEEDUP_GATE:
        failures.append(
            f"vectorised scan speedup {sp['speedup']:.1f}x "
            f"< {VECTOR_SPEEDUP_GATE}x at {sp['scan_tuples']}-tuple scans"
        )
    disc = report["discovery"]
    if not disc["split_moved"]:
        failures.append(
            "discovery committed the same (D, R) for scan-heavy and "
            f"lookup-only mixes: {disc['lookup_only']}"
        )
    return failures
