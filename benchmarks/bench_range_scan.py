"""CLI for the batched range-scan benchmark gate.

Runs :func:`repro.bench.scan.run_scan` — engine-path bit-identity
(incl. under an injected fault plan), the scalar-vs-vectorised
leaf-chain wall-clock gate, and the scan-aware Algorithm-1 discovery
gate — writes the report, and exits non-zero when any gate in
:func:`repro.bench.scan.gate_failures` fails::

    PYTHONPATH=src python benchmarks/bench_range_scan.py \
        [--smoke] [--out BENCH_pr9.json]
"""

import argparse
import json
import sys
from pathlib import Path

from repro.bench.scan import gate_failures, run_scan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset for CI (sub-minute instead of minutes)",
    )
    parser.add_argument(
        "--out", default="BENCH_pr9.json",
        help="output JSON path (default: BENCH_pr9.json)",
    )
    args = parser.parse_args(argv)

    report = run_scan(smoke=args.smoke)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({report['mode']}, machine={report['machine']}, "
          f"{report['keys']} keys, {report['scans']} scans)")
    for row in report["identity"]:
        print(
            f"  {row['tree']}: batching={row['batching_bit_identical']}"
            + (
                f" resilient={row['resilient_bit_identical']}"
                f"/faulted={row['resilient_faulted_bit_identical']}"
                f" (faults={row['faults_handled']})"
                if "resilient_bit_identical" in row else ""
            )
        )
    sp = report["speedup"]
    print(
        f"  leaf scan @ {sp['scan_tuples']} tuples: scalar "
        f"{sp['scalar_s']:.4f}s -> vector {sp['vector_s']:.4f}s "
        f"({sp['speedup']:.1f}x, results={sp['results_identical']}, "
        f"counters={sp['counters_identical']})"
    )
    disc = report["discovery"]
    print(
        f"  discovery: lookup-only {disc['lookup_only']} -> "
        f"scan-heavy {disc['scan_heavy']} (moved={disc['split_moved']})"
    )
    ada = report["adaptive"]
    print(
        f"  adaptive loop: windows={ada['windows']} "
        f"share={ada['scan_share_live']:.2f} "
        f"length={ada['scan_length_live']:.0f} "
        f"identical={ada['bit_identical']}"
    )

    failures = gate_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
