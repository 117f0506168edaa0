"""Wall-clock benchmark CLI: times the simulator's real hot paths.

Unlike the figure benchmarks (which report *modeled* nanoseconds), this
script measures host wall-clock time of the paths PR-level performance
work targets — mirror packing, bulk lookup through the batch engine,
batch updates, and the batched cache-touch accounting — and writes the
results to ``BENCH_pr2.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--smoke] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_wallclock.py --trace [--smoke]

``--smoke`` shrinks the dataset for CI.  The script exits non-zero if a
vectorised path is slower than its scalar reference by more than 1.5x,
or if sorting a skewed bucket fails to reduce modeled transactions —
the regression gate for the batch execution engine.

``--trace`` benchmarks the observability layer (``repro.obs``) and
writes ``BENCH_pr4.json`` plus a Perfetto-loadable Chrome trace
(default ``<out stem>.trace.json``, load at https://ui.perfetto.dev).
Its gate hard-fails if a tracing-enabled run is not bit-identical to a
disabled run, if the modeled device counters diverge, if the exported
trace fails schema validation (orphan ends, unbalanced spans), if the
caller's thread track is missing from the trace, or if tracing inflates
wall-clock past the overhead bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: a vectorised path slower than its scalar reference by more than this
#: factor fails the gate
MAX_SLOWDOWN = 1.5

#: tracing may not inflate the batch engine's wall-clock past this
#: factor (generous: span bodies are microseconds next to millisecond
#: buckets, but smoke runs on loaded CI hosts are noisy)
MAX_TRACE_OVERHEAD = 1.5


def run_trace_gate(args) -> int:
    """Run the trace benchmark and enforce the observability gate."""
    from repro.bench.wallclock import run_trace

    out = args.out or "BENCH_pr4.json"
    trace_path = str(Path(out).with_suffix("")) + ".trace.json"
    report = run_trace(smoke=args.smoke, trace_path=trace_path)
    Path(out).write_text(json.dumps(report, indent=2) + "\n")

    trace = report["trace"]
    print(f"wrote {out} ({report['mode']} mode, {report['cpu_count']} cores)")
    print(f"wrote {trace_path} (load at https://ui.perfetto.dev)")
    print(
        f"  batch engine: {report['queries']} queries, "
        f"bucket {report['bucket_size']}"
    )
    print(
        f"  untraced {report['untraced_wall_ns'] / 1e6:.1f} ms -> traced "
        f"{report['traced_wall_ns'] / 1e6:.1f} ms "
        f"({report['overhead_ratio']:.3f}x overhead)"
    )
    print(
        f"  trace: {trace['events']} events, {trace['spans']} spans, "
        f"tracks {trace['thread_names']}, valid={trace['valid']}"
    )
    print(
        f"  identical={report['bit_identical']}, "
        f"counters={report['counters_match']}"
    )

    failures = []
    if not report["bit_identical"]:
        failures.append("tracing-enabled run is not bit-identical to disabled")
    if not report["counters_match"]:
        failures.append(
            "modeled device counters diverged under tracing "
            f"({report['counters']['traced']} vs "
            f"{report['counters']['untraced']})"
        )
    if not trace["valid"]:
        failures.append(
            f"trace failed schema validation: {trace['validation_errors']}"
        )
    if not trace["thread_names"]:
        failures.append("trace is missing the caller track")
    if report["overhead_ratio"] > MAX_TRACE_OVERHEAD:
        failures.append(
            f"tracing overhead {report['overhead_ratio']:.2f}x exceeds "
            f"the {MAX_TRACE_OVERHEAD}x bound"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="benchmark the observability layer and export a Perfetto "
             "trace (BENCH_pr4.json + BENCH_pr4.trace.json)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_pr2.json, "
             "BENCH_pr4.json with --trace)",
    )
    args = parser.parse_args(argv)

    if args.trace:
        return run_trace_gate(args)

    from repro.bench.wallclock import run_wallclock

    report = run_wallclock(smoke=args.smoke)
    out = args.out or "BENCH_pr2.json"
    Path(out).write_text(json.dumps(report, indent=2) + "\n")

    mirror = report["mirror"]
    touch = report["touch"]
    zipf = report["lookup"]["zipf"]
    update = report["update"]
    print(f"wrote {out} ({report['mode']} mode)")
    print(f"  pack_i_segment speedup vs scalar: {mirror['pack_speedup']:.2f}x")
    print(f"  touch_lines speedup vs per-line:  {touch['speedup']:.2f}x")
    print(
        "  zipf transactions/query: "
        f"{zipf['unsorted_transactions_per_query']:.2f} unsorted -> "
        f"{zipf['sorted_transactions_per_query']:.2f} sorted "
        f"({100 * zipf['transaction_reduction']:.1f}% saved)"
    )
    print(
        "  sync PCIe transfers: "
        f"{update['sync_pernode_pcie_transfers']} per-node -> "
        f"{update['sync_batched_pcie_transfers']} batched"
    )

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
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
