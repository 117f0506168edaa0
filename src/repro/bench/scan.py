"""Benchmark of the batched range-scan path (BENCH_pr9).

Answers the three questions DESIGN.md §15 leaves to measurement:

1. **Is the batched scan path exact?**  Every engine entry point —
   :meth:`~repro.core.batching.BatchingEngine.run_scans` and
   :meth:`~repro.core.resilience.ResilientHBPlusTree.run_scans`
   (the latter under an injected :class:`~repro.faults.FaultPlan`) —
   is checked bit-for-bit against the sequential per-tree
   ``range_query`` walk, on the regular and the implicit tree.

2. **Does the vectorised leaf-chain scan pay for itself?**  The gate
   requires the gap-mask-aware vectorised leaf scan
   (``range_scan_from``) to beat the scalar reference walk
   (:func:`range_scan_from_scalar`) by at least ``VECTOR_SPEEDUP_GATE``x
   wall-clock at 1K-tuple scans, with results and modeled cache
   counters identical between the two.  The start leaves are
   descended once outside the timed region: the descent is the same
   emulated-SIMD search on both sides (and on the GPU path it is the
   bucket machinery's job anyway), so timing it would only dilute the
   stage the gate is about.

3. **Is scan costing live in discovery?**  Algorithm 1 is run twice on
   the same profiled tree — once lookup-only, once with
   ``set_scan_profile(0.5, 1024)`` — and the gate requires the
   committed (D, R) to move (not merely the kernel: the scan term
   must change the split itself).

``run_scan`` returns one JSON-serialisable dict and
:func:`gate_failures` is its gate; ``python -m repro.bench.gates scan``
runs both and writes ``BENCH_pr9.json``.  Gates 1 and 3 are
fully modeled (host-independent); gate 2 is the one wall-clock gate,
with a margin wide enough for noisy CI hosts.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.core.resilience import ResilientHBPlusTree
from repro.cpu.btree_regular import _NIL
from repro.faults import FaultInjector, FaultPlan
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import (
    make_drifting_scan_queries,
    make_scan_queries,
)

#: wall-clock factor the vectorised leaf scan must beat the scalar
#: walk by at 1K-tuple scans (measured headroom is an order of
#: magnitude beyond this; the margin absorbs CI-host noise)
VECTOR_SPEEDUP_GATE = 5.0

#: the scan profile the discovery gate prices (half the mix scanning,
#: 1K tuples per scan — the scan-heavy tenant shape)
SCAN_PROFILE = (0.5, 1024.0)


def _sequential_walk(tree, los: np.ndarray, his: np.ndarray) -> List:
    """The ground truth: one ``range_query`` at a time, stream order."""
    return [
        tree.range_query(int(lo), int(hi))
        for lo, hi in zip(los.tolist(), his.tolist())
    ]


def _identity_rows(keys, values, machine, los, his,
                   fault_rate: float) -> List[Dict[str, Any]]:
    """Gate-1 rows: every engine entry point vs the sequential walk."""
    rows: List[Dict[str, Any]] = []
    for name, cls in (("regular", HBPlusTree),
                      ("implicit", ImplicitHBPlusTree)):
        ref = _sequential_walk(cls(keys, values, machine=machine),
                               los, his)
        batch = BatchingEngine(cls(keys, values, machine=machine))
        got_batch = batch.run_scans(los, his)
        rows.append({
            "tree": name,
            "scans": len(los),
            "tuples": int(batch.stats.scan_tuples),
            "batching_bit_identical": got_batch == ref,
        })
        if cls is HBPlusTree:
            # the resilient wrapper serves the regular tree; the fault
            # plan exercises its retry/fallback ladder mid-scan
            plain = ResilientHBPlusTree(
                HBPlusTree(keys, values, machine=machine)
            )
            faulted_tree = HBPlusTree(keys, values, machine=machine)
            injector = FaultInjector(FaultPlan.uniform(fault_rate, seed=7))
            faulted_tree.attach_injector(injector)
            faulted = ResilientHBPlusTree(faulted_tree, injector=injector)
            rows[-1]["resilient_bit_identical"] = (
                plain.run_scans(los, his) == ref
            )
            rows[-1]["resilient_faulted_bit_identical"] = (
                faulted.run_scans(los, his) == ref
            )
            rows[-1]["faults_handled"] = int(faulted.stats.faults_handled)
    return rows


def range_scan_from_scalar(tree, node: int, lo: int,
                           hi: int) -> List[Tuple[int, int]]:
    """Slot-by-slot reference walk of a regular or gapped tree's
    ``range_scan_from``: the baseline gate 2 times the vectorised
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
    """Gate-2 row: scalar vs vectorised leaf scan, wall-clock +
    result/counter identity, from precomputed start leaves."""
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

    before = dict(vars(scalar_tree.mem.counters))
    scalar_results = [
        range_scan_from_scalar(scalar_tree, node, lo, hi)
        for node, lo, hi in triples
    ]
    scalar_counters = {
        k: v - before[k] for k, v in vars(scalar_tree.mem.counters).items()
    }
    before = dict(vars(vector_tree.mem.counters))
    vector_results = [
        vector_tree.range_scan_from(node, lo, hi)
        for node, lo, hi in triples
    ]
    vector_counters = {
        k: v - before[k] for k, v in vars(vector_tree.mem.counters).items()
    }

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
        "results_identical": scalar_results == vector_results,
        "counters_identical": scalar_counters == vector_counters,
    }


def _discovery_row(keys, values, machine) -> Dict[str, Any]:
    """Gate-3 row: Algorithm 1 lookup-only vs scan-heavy."""
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


def _adaptive_row(keys, values, machine, los, his) -> Dict[str, Any]:
    """The live loop: scan buckets fed through the controller move the
    balancer's scan profile window by window (costing live, end to
    end — not just in the offline discovery call)."""
    tree = ImplicitHBPlusTree(keys, values, machine=machine)
    controller = AdaptiveController.for_tree(
        tree,
        config=AdaptiveConfig(window_buckets=2, min_window_queries=32,
                              sample_size=256),
    )
    engine = BatchingEngine(tree, bucket_size=256, balancer=controller)
    ref = _sequential_walk(
        ImplicitHBPlusTree(keys, values, machine=machine), los, his
    )
    got = engine.run_scans(los, his)
    balancer = controller.balancer
    return {
        "bit_identical": got == ref,
        "windows": int(controller.stats.windows),
        "scans_noted": int(controller.stats.scans),
        "scan_share_live": float(balancer.scan_share),
        "scan_length_live": float(balancer.scan_length),
    }


def run_scan(smoke: bool = False) -> Dict[str, Any]:
    """The full PR-9 report (gates 1-3 + the live adaptive loop)."""
    machine = machine_m1()
    n_keys = 1 << 15 if smoke else 1 << 17
    n_scans = 192 if smoke else 1024
    repeats = 2 if smoke else 3
    speed_scans = 24 if smoke else 96
    keys, values = generate_dataset(n_keys, seed=21)

    los_g, his_g = make_scan_queries(keys, n_scans, 64,
                                     dist="geometric", seed=3)
    los_d, his_d = make_drifting_scan_queries(keys, n_scans, 32, seed=4)
    los = np.concatenate([los_g, los_d])
    his = np.concatenate([his_g, his_d])

    report: Dict[str, Any] = {
        "mode": "smoke" if smoke else "full",
        "machine": "m1",
        "keys": n_keys,
        "scans": int(len(los)),
        "identity": _identity_rows(keys, values, machine, los, his,
                                   fault_rate=0.3),
        "speedup": _speedup_row(keys, values, machine,
                                scan_tuples=1000,
                                n_scans=speed_scans, repeats=repeats),
        "discovery": _discovery_row(keys, values, machine),
        "adaptive": _adaptive_row(keys, values, machine,
                                  los[:1024], his[:1024]),
    }
    return report


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """Every acceptance-gate violation in a ``run_scan`` report."""
    failures: List[str] = []
    for row in report["identity"]:
        for field in ("batching_bit_identical",
                      "resilient_bit_identical",
                      "resilient_faulted_bit_identical"):
            if field in row and not row[field]:
                failures.append(
                    f"{row['tree']}: {field.replace('_', ' ')} is False"
                )
    sp = report["speedup"]
    if not sp["results_identical"]:
        failures.append("speedup run: scalar/vector results differ")
    if not sp["counters_identical"]:
        failures.append("speedup run: scalar/vector modeled counters differ")
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
    ada = report["adaptive"]
    if not ada["bit_identical"]:
        failures.append("adaptive engine scans diverge from the walk")
    if ada["scan_share_live"] <= 0.0:
        failures.append("adaptive loop never applied a live scan profile")
    return failures
