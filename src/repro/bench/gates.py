"""Every benchmark gate, run from one table.

A gate is a ``run(smoke)`` that returns a JSON report and a
``failures(report)`` that lists what the report fails; the report is
written under its fixed name with that list as its ``"failures"``.
``python -m repro.bench.gates [--smoke] [NAME ...]`` runs the named
gates (default: all), prints ``PASS <name>`` or one ``FAIL <name>:
<message>`` line per failure, keeps going after a failure and exits 1
if any gate failed.  ``--smoke`` shrinks every dataset for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple

from repro.bench import adaptive, frontier, lifecycle, mixed, scan, wallclock

#: the Perfetto-loadable trace the ``trace`` gate exports
TRACE_FILE = "BENCH_pr4.trace.json"

Report = Dict[str, Any]


class Gate(NamedTuple):
    name: str
    report: str
    run: Callable[[bool], Report]
    failures: Callable[[Report], List[str]]


GATES = (
    Gate("wallclock", "BENCH_pr2.json", wallclock.run_wallclock,
         wallclock.gate_failures),
    Gate("trace", "BENCH_pr4.json",
         lambda smoke: wallclock.run_trace(smoke, trace_path=TRACE_FILE),
         wallclock.trace_gate_failures),
    Gate("adaptive", "BENCH_pr5.json", adaptive.run_adaptive,
         adaptive.gate_failures),
    Gate("lifecycle", "BENCH_pr6.json", lifecycle.run_lifecycle,
         lifecycle.gate_failures),
    Gate("frontier", "BENCH_pr7.json", frontier.run_frontier,
         frontier.gate_failures),
    Gate("mixed", "BENCH_pr8.json", mixed.run_mixed, mixed.gate_failures),
    Gate("scan", "BENCH_pr9.json", scan.run_scan, scan.gate_failures),
)


def main(argv=None) -> int:
    names = [gate.name for gate in GATES]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gates",
        description="Run the benchmark gates and write their reports.")
    parser.add_argument("--smoke", action="store_true",
                        help="small datasets for CI")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default: all of {names})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(names))
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; known: {names}")

    failed = False
    for gate in GATES:
        if args.names and gate.name not in args.names:
            continue
        try:
            report = gate.run(args.smoke)
            failures = report["failures"] = gate.failures(report)
            Path(gate.report).write_text(json.dumps(report, indent=2) + "\n")
        except Exception as exc:  # a crash fails this gate, not the run
            traceback.print_exc()
            failures = [f"raised {exc!r}"]
        for failure in failures:
            print(f"FAIL {gate.name}: {failure}", flush=True)
        if not failures:
            print(f"PASS {gate.name}", flush=True)
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
