#!/usr/bin/env python3
"""The repository benchmark: one closed-loop client against IndexService.

Usage, from the repository root::

    python3 perfbench/run.py --workload lookup_uniform --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` is the end-to-end run: observability stays disabled and
only service calls are timed.  ``--trace 1`` is the per-layer run:
wrappers from :mod:`tracing` record spans around every layer through
the counted window, then in every other block of batches; the blocks
between run untraced, give the tracing overhead, and time the floor and
unsharded-engine references.  Both print a report, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output; result context and the Chrome trace land in
``perfbench/out/``.  The exit code is 0 only when every answer matched
the reference map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: batches between explicit (untimed) garbage collections
GC_EVERY = 16

#: the floor of a lookup batch is the best of this many timings of
#: ``np.searchsorted`` plus gather over the reference map
FLOOR_REPEATS = 3

#: batches per traced or untraced block after the counted window
OVERHEAD_BLOCK = 10

#: batches of the traced phase exported to the Chrome trace
TRACE_EXPORT_BATCHES = 100

PERCENTILE_METHOD = "ceil nearest-rank"

#: (name, unit) of every end-to-end metric, in report order; only the
#: ones that apply to the workload are reported
E2E_UNITS = {
    "ops_per_s": "1/s", "lookup_p50_ms": "ms", "lookup_p99_ms": "ms",
    "scan_p50_ms": "ms", "scan_p90_ms": "ms", "update_p50_ms": "ms",
    "update_p90_ms": "ms", "failed_frac": "frac", "setup_s": "s",
    "rss_mb": "MB", "x_floor": "x", "gpu_txn_per_key": "txn/key",
    "pcie_bytes_per_update": "B/op",
}


def percentile(values: List[float], p: float) -> float:
    """Ceil nearest-rank percentile, the service's own method."""
    ordered = sorted(values)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def git_sha(root: str = ROOT) -> str:
    """HEAD of the checkout's git metadata, or "unknown" without it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "system": platform.system()}


def modeled_snapshot(svc) -> Dict[str, int]:
    """Modeled counters summed over shards (exact, clock-free)."""
    snap = dict(txns=0, launches=0, pcie_bytes=0, faults_handled=0,
                degradations=0, served_hybrid=0, served_cpu=0, windows=0,
                rebalances=0)
    for shard in svc.shards:
        tree = shard.tree
        snap["txns"] += tree.device.memory.counters.transactions_64
        snap["launches"] += tree.device.kernel_launches
        snap["pcie_bytes"] += tree.link.stats.bytes_to_device
        res = getattr(shard, "resilient", None)
        if res is not None:
            snap["faults_handled"] += res.stats.faults_handled
            snap["degradations"] += res.stats.degradations
            snap["served_hybrid"] += res.stats.served_hybrid
            snap["served_cpu"] += res.stats.served_cpu
        ctl = getattr(shard, "controller", None)
        if ctl is not None:
            snap["windows"] += ctl.stats.windows
            snap["rebalances"] += ctl.stats.rebalances
    return snap


def _delta(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    return {k: b[k] - a[k] for k in a}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    """One workload run: set-up, the closed loop, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from repro.faults import FaultPlan
        from repro.service import QuotaConfig, ServiceConfig
        from workloads import (UNLIMITED_QUOTA, BatchStream, RefMap,
                               make_dataset)

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.keys, self.values = make_dataset(workload.n_keys, seed)
        self.config = ServiceConfig(
            n_shards=workload.n_shards, router="range", kind=workload.kind,
            adaptive=workload.adaptive,
            fault_plan=(FaultPlan.uniform(workload.fault_rate,
                                          seed=workload.fault_seed)
                        if workload.fault_rate else None),
            quota=QuotaConfig(tenants={
                t: (UNLIMITED_QUOTA, 0.0) for t in workload.tenants}),
        )
        self.ref = RefMap(self.keys, self.values)
        self.stream = BatchStream(workload, seed, self.ref)
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: List[str] = []
        self.lat_ms: Dict[str, List[float]] = {"lookup": [], "scan": [],
                                               "update": []}
        #: lookup latencies after the counted window, by traced or not
        self.overhead_ms: Dict[bool, List[float]] = {True: [], False: []}
        self.floor_us: List[float] = []
        self.ref_us: List[float] = []
        self.timed_ops = 0
        self.timed_ns = 0
        self.window_ops = {"lookup": 0, "scan": 0, "update": 0}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> List[float]:
        """Build the service ``setups`` times; the last one serves."""
        from repro.service import IndexService
        times = []
        for _ in range(self.w.setups):
            self.svc = None
            gc.collect()
            t0 = time.perf_counter()
            self.svc = IndexService.build(self.keys, self.values,
                                          self.config)
            times.append(time.perf_counter() - t0)
        return times

    def build_reference_engine(self):
        """One unsharded engine over all keys (the ``ref`` baseline)."""
        from repro.core.batching import BatchingEngine
        from repro.lifecycle.bulkload import bulk_load
        from repro.platform.configs import machine_m1
        tree = bulk_load(self.w.kind, self.keys, self.values,
                         machine=machine_m1())
        return BatchingEngine(tree)

    # -- serving and checking --------------------------------------------

    def serve(self, batch):
        svc = self.svc
        if batch.kind == "lookup":
            return svc.lookup_batch(batch.keys, tenant=batch.tenant)
        if batch.kind == "scan":
            return svc.run_scans(batch.keys, batch.his, tenant=batch.tenant)
        return svc.apply_updates(batch.keys, batch.values, batch.deletes,
                                 tenant=batch.tenant)

    def check(self, batch, answer) -> None:
        """Compare one answer with the reference map; then advance the
        map by the batch's writes.  Never inside a timed region."""
        if batch.kind == "lookup":
            floor_ns = []
            for _ in range(FLOOR_REPEATS):
                t0 = time.perf_counter_ns()
                expected = self.ref.lookup(batch.keys)
                floor_ns.append(time.perf_counter_ns() - t0)
            self.floor_us.append(min(floor_ns) / 1e3)
            if answer is not None:
                bad = int(np.count_nonzero(
                    np.asarray(answer, dtype=np.uint64) != expected))
                self._mismatch(bad, batch, "lookup values")
        elif batch.kind == "scan":
            if answer is not None:
                bad = sum(
                    [tuple(r) for r in rows] != self.ref.scan(int(lo), int(hi))
                    for rows, lo, hi in zip(answer, batch.keys.tolist(),
                                            batch.his.tolist()))
                bad += abs(len(answer) - len(batch.keys))
                self._mismatch(bad, batch, "scan rows")
        else:
            self.ref.apply(batch.keys, batch.values, batch.deletes)

    def _mismatch(self, bad: int, batch, what: str) -> None:
        if bad:
            self.failed += bad
            self.mismatches += bad
            self.errors.append(f"batch {batch.index}: {bad} wrong {what}")

    def check_contents(self) -> None:
        keys, values = self.svc.contents()
        self.attempted += 1
        if not (np.array_equal(np.asarray(keys, np.uint64), self.ref.keys)
                and np.array_equal(np.asarray(values, np.uint64),
                                   self.ref.values)):
            self.failed += 1
            self.mismatches += 1
            self.errors.append("final contents() differ from the "
                               "reference map")

    def step(self, i: int, timed: bool, tracer=None):
        batch = self.stream.batch(i)
        if tracer is not None:
            tracer.batch, tracer.kind = i, batch.kind
        answer = None
        t0 = time.perf_counter_ns()
        try:
            answer = self.serve(batch)
            ok = True
        except Exception:  # a refused or failed call is counted, not fatal
            ok = False
        t1 = time.perf_counter_ns()
        self.attempted += batch.ops
        if not ok:
            self.failed += batch.ops
            self.errors.append(f"batch {batch.index} ({batch.kind}): "
                               + traceback.format_exc(limit=3))
        self.check(batch, answer)
        ms = (t1 - t0) / 1e6 if ok else None
        if ms is not None and timed:
            self.lat_ms[batch.kind].append(ms)
            self.timed_ops += batch.ops
            self.timed_ns += t1 - t0
        if self.w.warmup_batches <= i < self.w.counted_until:
            self.window_ops[batch.kind] += batch.ops
        return batch, ms

    # -- the closed loop ---------------------------------------------------

    def traced_batch(self, i: int) -> bool:
        """The traced run traces the whole counted window, then
        alternates untraced and traced blocks, so the overhead compares
        batches served at the same time."""
        if not self.trace:
            return False
        if i < self.w.counted_until:
            return True
        return (i - self.w.counted_until) // OVERHEAD_BLOCK % 2 == 1

    def run(self) -> Dict[str, object]:
        w = self.w
        self.setup_times = self.setup()
        for i in range(w.warmup_batches):
            self.step(i, timed=False)
        snap0 = modeled_snapshot(self.svc)
        tracer = ref_engine = None
        if self.trace:
            from tracing import Tracer
            ref_engine = self.build_reference_engine()
            tracer = Tracer()
        # cyclic garbage is collected between batches, never inside a
        # timed call
        gc.collect()
        gc.freeze()
        gc.disable()
        i = w.warmup_batches
        try:
            start = time.perf_counter()
            while (time.perf_counter() - start < self.seconds
                   or i < w.counted_until):
                traced = self.traced_batch(i)
                if tracer is not None and traced != tracer.installed:
                    if traced:
                        tracer.install()
                    else:
                        tracer.uninstall()
                batch, ms = self.step(i, timed=True,
                                      tracer=tracer if traced else None)
                if (self.trace and batch.kind == "lookup"
                        and i >= w.counted_until and ms is not None):
                    self.overhead_ms[traced].append(ms)
                    if not traced:
                        t0 = time.perf_counter_ns()
                        ref_engine.lookup_batch(batch.keys)
                        self.ref_us.append(
                            (time.perf_counter_ns() - t0) / 1e3)
                i += 1
                if i == w.counted_until:
                    self.snap1 = modeled_snapshot(self.svc)
                if i % GC_EVERY == 0:
                    gc.collect()
        finally:
            if tracer is not None:
                tracer.uninstall()
            gc.enable()
            gc.unfreeze()
        self.batches = i
        self.window = _delta(snap0, self.snap1)
        self.check_contents()
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.tracer = tracer
        return self.metrics()

    # -- metrics -----------------------------------------------------------

    def e2e(self) -> Dict[str, float]:
        m: Dict[str, float] = {}
        m["ops_per_s"] = _ratio(self.timed_ops, self.timed_ns / 1e9)
        lookups = self.lat_ms["lookup"]
        if lookups:
            m["lookup_p50_ms"] = percentile(lookups, 50)
            m["lookup_p99_ms"] = percentile(lookups, 99)
        if self.lat_ms["scan"]:
            m["scan_p50_ms"] = percentile(self.lat_ms["scan"], 50)
            m["scan_p90_ms"] = percentile(self.lat_ms["scan"], 90)
        if self.lat_ms["update"]:
            m["update_p50_ms"] = percentile(self.lat_ms["update"], 50)
            m["update_p90_ms"] = percentile(self.lat_ms["update"], 90)
        m["failed_frac"] = _ratio(self.failed, self.attempted)
        m["setup_s"] = statistics.median(self.setup_times)
        m["rss_mb"] = self.rss_mb
        if lookups:
            m["x_floor"] = m["lookup_p50_ms"] * 1e3 / percentile(
                self.floor_us, 50)
        probes = self.window_ops["lookup"] + self.window_ops["scan"]
        m["gpu_txn_per_key"] = _ratio(self.window["txns"], probes)
        if self.window_ops["update"]:
            m["pcie_bytes_per_update"] = _ratio(self.window["pcie_bytes"],
                                                self.window_ops["update"])
        return m

    def per_layer(self):
        """Per-layer metrics: ``{name: (value, unit, base)}``."""
        from tracing import KIND, LAYERS, PARENT, LayerTotals
        spans = self.tracer.spans
        w = self.w
        t = LayerTotals(spans)
        upd = LayerTotals(spans, kind="update")
        win = LayerTotals(spans, batches=range(w.warmup_batches,
                                               w.counted_until))
        n_batch = t.outer_calls.get("service", 0)
        n_kind = {k: sum(1 for s in spans
                         if s[PARENT] < 0 and s[KIND] == k)
                  for k in self.lat_ms}
        n_sub = t.outer_calls.get("shard", 0)
        n_buckets = t.count("engine", "buckets")
        n_descents = t.count("descent", "buckets")
        n_scans = t.count("scan", "scans")
        n_upd_ops = upd.count("update", "ops")
        n_upd = n_kind["update"]
        _, wait_us = t.name_us("ShardQueue.acquire")
        writes_n, writes_us = upd.name_us(
            "RegularCpuBPlusTree.insert", "RegularCpuBPlusTree.delete",
            "RegularCpuBPlusTree.insert_batch")
        rebuild_n, rebuild_us = t.name_us("HBPlusTree.mirror_i_segment")
        served = self.window["served_hybrid"] + self.window["served_cpu"]
        untraced = self.overhead_ms[False]
        traced = self.overhead_ms[True]
        b = f"per traced service batch (n={n_batch})"
        sb = f"per shard sub-batch (n={n_sub})"
        ub = f"per update batch (n={n_upd})"
        cw = (f"counted window, batches {w.warmup_batches}.."
              f"{w.counted_until - 1}")
        m = {
            "service.self_us_per_batch": (_ratio(t.self_us("service"),
                                                 n_batch), "us", b),
            "router.us_per_batch": (_ratio(t.inclusive_us("router"),
                                           n_batch), "us", b),
            "router.sub_batches_per_batch": (_ratio(n_sub, n_batch),
                                             "count", b),
            "quota.us_per_batch": (_ratio(t.inclusive_us("quota"), n_batch),
                                   "us", b),
            "admission.us_per_sub_batch": (
                _ratio(t.inclusive_us("admission"), n_sub), "us", sb),
            "admission.wait_us_per_sub_batch": (_ratio(wait_us, n_sub),
                                                "us", sb),
            "shard.self_us_per_sub_batch": (_ratio(t.self_us("shard"),
                                                   n_sub), "us", sb),
            "engine.self_us_per_bucket": (
                _ratio(t.self_us("engine"), n_buckets), "us",
                f"per engine bucket (n={n_buckets})"),
            "engine.buckets_per_batch": (
                _ratio(n_buckets, n_kind["lookup"] + n_kind["scan"]),
                "count", "per lookup or scan batch (n="
                f"{n_kind['lookup'] + n_kind['scan']})"),
            "plan.us_per_bucket": (
                _ratio(t.inclusive_us("plan"), t.calls.get("plan", 0)),
                "us", f"per plan_bucket call (n={t.calls.get('plan', 0)})"),
            "plan.unique_frac": (
                _ratio(t.count("plan", "unique"), t.count("plan", "queries")),
                "frac", f"unique keys / planned keys "
                f"(n={int(t.count('plan', 'queries'))})"),
            "descent.us_per_bucket": (
                _ratio(t.inclusive_us("descent"), n_descents), "us",
                f"per GPU-stage bucket (n={n_descents})"),
            "descent.txn_per_unique": (
                _ratio(win.count("descent", "txns"),
                       win.count("descent", "keys")),
                "txn/key", f"modeled 64-B txns / descended keys, {cw}"),
            "descent.kernel_launches": (self.window["launches"], "count",
                                        cw),
            "leaf.us_per_bucket": (
                _ratio(t.inclusive_us("leaf"), t.calls.get("leaf", 0)), "us",
                f"per cpu_finish_bucket call (n={t.calls.get('leaf', 0)})"),
            "scan.us_per_scan": (_ratio(t.inclusive_us("scan"), n_scans),
                                 "us", f"per range scan (n={n_scans})"),
            "scan.tuples_per_scan": (_ratio(t.count("scan", "tuples"),
                                            n_scans), "count",
                                     f"per range scan (n={n_scans})"),
            "memsim.lines_per_scan": (
                _ratio(t.count("scan", "lines"), n_scans), "count",
                f"per range scan (n={n_scans})"),
            "memsim.cache_hit_rate": (
                _ratio(t.count("scan", "hits"), t.count("scan", "lines")),
                "frac", f"LLC hits / lines the scans touched "
                f"(n={int(t.count('scan', 'lines'))})"),
            "update.us_per_op": (_ratio(upd.inclusive_us("update"),
                                        n_upd_ops), "us",
                                 f"per update op (n={int(n_upd_ops)})"),
            "cputree.write_us_per_op": (_ratio(writes_us, n_upd_ops), "us",
                                        f"per update op (n={int(n_upd_ops)}"
                                        f", {writes_n} write calls)"),
            "cputree.lookups_per_update_batch": (
                _ratio(upd.count("cputree", "lookups"), n_upd), "count", ub),
            "mirror.rebuilds": (win.count("mirror", "rebuilds"), "count", cw),
            "mirror.us_per_rebuild": (_ratio(rebuild_us, rebuild_n), "us",
                                      f"per full mirror rebuild "
                                      f"(n={rebuild_n})"),
            "pcie.transfers_per_update_batch": (
                _ratio(upd.count("pcie", "transfers"), n_upd), "count", ub),
            "pcie.modeled_us_per_update_batch": (
                _ratio(upd.count("pcie", "modeled_ns") / 1e3, n_upd), "us",
                ub),
            "resilience.self_us_per_batch": (
                _ratio(t.self_us("resilience"), n_batch), "us", b),
            "resilience.faults_handled": (self.window["faults_handled"],
                                          "count", cw),
            "resilience.degradations": (self.window["degradations"],
                                        "count", cw),
            "resilience.cpu_served_frac": (
                _ratio(self.window["served_cpu"], served), "frac",
                f"CPU-only served ops / resilient ops (n={served}), {cw}"),
            "adaptive.windows": (self.window["windows"], "count", cw),
            "adaptive.us_per_window": (
                _ratio(t.inclusive_us("adaptive"),
                       t.calls.get("adaptive", 0)), "us",
                f"per closed window (n={t.calls.get('adaptive', 0)})"),
            "adaptive.rebalances": (self.window["rebalances"], "count", cw),
            "floor.us_per_batch": (
                percentile(self.floor_us, 50), "us",
                f"p50 of best-of-{FLOOR_REPEATS} searchsorted+gather per "
                f"lookup batch (n={len(self.floor_us)})"),
            "ref.unsharded_us_per_batch": (
                percentile(self.ref_us, 50) if self.ref_us else 0.0, "us",
                f"p50 of one unsharded BatchingEngine per lookup batch "
                f"(n={len(self.ref_us)})"),
            "trace.overhead_frac": (
                _ratio(percentile(traced, 50), percentile(untraced, 50)) - 1
                if traced and untraced else 0.0, "frac",
                f"traced lookup p50 (n={len(traced)}) / untraced lookup "
                f"p50 (n={len(untraced)}) - 1"),
        }
        total = t.inclusive_us("service")
        for layer in LAYERS:
            m[f"{layer}.self_frac"] = (
                _ratio(t.self_us(layer), total), "frac",
                f"share of traced service time ({total / 1e3:.1f} ms)")
        return m

    def gate_ratios(self) -> Dict[str, float]:
        """The serving-path gate ratios, from the untraced blocks of a
        traced run: the service's lookup p50 over one unsharded engine's
        (gate <= 1.5), and that engine's over the floor (gate <= 4)."""
        service = self.overhead_ms[False]
        if not (service and self.ref_us):
            return {}
        ref = percentile(self.ref_us, 50)
        return {"service_over_unsharded": percentile(service, 50) * 1e3 / ref,
                "unsharded_over_floor": ref / percentile(self.floor_us, 50)}

    def metrics(self):
        if self.trace:
            return self.per_layer()
        return {k: (v, E2E_UNITS[k], "") for k, v in self.e2e().items()}

    # -- reporting ---------------------------------------------------------

    def context(self) -> Dict[str, object]:
        return {
            "workload": self.w.name, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "host": host_info(), "git_sha": git_sha(),
            "params": self.w.params(),
            "percentile_method": PERCENTILE_METHOD,
            "batches": self.batches,
            "timed_batches": {k: len(v) for k, v in self.lat_ms.items()},
            "setup_times_s": self.setup_times,
            "counted_window_ops": self.window_ops,
            "modeled_window": self.window,
            "trace_points_missing": (self.tracer.missing
                                     if self.tracer else []),
            "gate_ratios": self.gate_ratios(),
        }

    def layer_table(self) -> List[str]:
        from tracing import LAYERS, LayerTotals
        t = LayerTotals(self.tracer.spans)
        total = t.inclusive_ns.get("service", 0) or 1
        lines = [f"{'layer':<11}{'calls':>9}{'self ms':>11}{'self %':>8}"
                 f"{'self us/call':>14}"]
        for layer in LAYERS:
            calls = t.calls.get(layer, 0)
            if not calls:
                continue
            ns = t.self_ns[layer]
            lines.append(f"{layer:<11}{calls:>9}{ns / 1e6:>11.2f}"
                         f"{100.0 * ns / total:>8.2f}"
                         f"{ns / 1e3 / calls:>14.2f}")
        lines.append(f"(self time over {t.outer_calls.get('service', 0)} "
                     f"traced service batches, {total / 1e6:.2f} ms)")
        return lines


def write_outputs(runner, metrics) -> List[str]:
    """Write the result file (and, traced, the Chrome trace checked with
    the program's own validator); returns the trace's violations."""
    from repro.obs import validate_events
    from tracing import chrome_trace
    w = runner.w
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR,
                        f"{w.name}-seed{runner.seed}-trace{int(runner.trace)}")
    errors: List[str] = []
    if runner.trace:
        trace = chrome_trace(runner.tracer.spans,
                             max_batch=w.warmup_batches + TRACE_EXPORT_BATCHES,
                             meta={"workload": w.name, "seed": runner.seed})
        with open(stem + ".trace.json", "w") as fh:
            json.dump(trace, fh)
        errors = validate_events(trace["traceEvents"])
    with open(stem + ".json", "w") as fh:
        json.dump({"context": runner.context(),
                   "metrics": {k: {"value": v, "unit": u, "base": b}
                               for k, (v, u, b) in metrics.items()},
                   "errors": runner.errors[:20]}, fh, indent=1)
    return errors


def print_report(runner, metrics, trace_errors: List[str]) -> None:
    print(f"workload {runner.w.name}: {runner.w.why}")
    print("context " + json.dumps(runner.context()))
    if runner.trace:
        print("\n".join(runner.layer_table()))
        ratios = runner.gate_ratios()
        if ratios:
            print(f"serving-path gates: service / unsharded engine = "
                  f"{ratios['service_over_unsharded']:.2f}x (gate <= 1.5x), "
                  f"unsharded engine / floor = "
                  f"{ratios['unsharded_over_floor']:.2f}x (gate <= 4x)")
    for name, (value, unit, base) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<8} {base}")
    if not runner.trace:
        for name in E2E_UNITS:
            if name not in metrics:
                print(f"  {name:<36} {'n/a':>14} (does not apply)")
    if trace_errors:
        print(f"trace validation: {len(trace_errors)} errors, first: "
              f"{trace_errors[0]}")
    elif runner.trace:
        print("trace validation: OK (repro.obs.validate_events)")
    for err in runner.errors[:5]:
        print("error: " + err.strip(), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace))
    metrics = runner.run()
    trace_errors = write_outputs(runner, metrics)
    print_report(runner, metrics, trace_errors)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    correct = runner.failed == 0 and not trace_errors
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
