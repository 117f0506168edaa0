#!/usr/bin/env python3
"""The mirror write ledger, shadowed on benchmark traffic.

Builds the seed-1 ``mixed_rw_drill`` service exactly as
``perfbench/run.py`` does and drives batches 0-109 (the warm-up and
the counted window) twice:

* with every ``HBPlusTree.verify_mirror`` call checked against the
  whole-image compare of :mod:`tests.mirror_oracles`, failing on the
  first row-set difference;
* with the whole-image compare in place of the ledger.

Every answer is checked against the workload's reference map, and the
two runs must leave every shard with the same fault schedule
(``injector.schedule()``), the same ``ResilienceStats`` and the same
modeled counters.  Not a tier-1 test (the file is not named
``test_*``): it builds a 2^20-key service.  Run from the repository
root::

    python tests/shadow_mirror_ledger.py [--seed N]

Exits 0 when the ledger held, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from repro.core.hbtree import HBPlusTree
from repro.service import IndexService
from run import Runner, modeled_snapshot
from tests.mirror_oracles import (
    LEDGER_VERIFY,
    LedgerShadow,
    oracle_verify,
)
from workloads import WORKLOADS

WORKLOAD = "mixed_rw_drill"


def drive(seed: int):
    """Serve and check the stream's first ``counted_until`` batches;
    returns the per-shard record the two runs must agree on."""
    runner = Runner(WORKLOADS[WORKLOAD], seed, seconds=0.0, trace=False)
    runner.svc = IndexService.build(runner.keys, runner.values,
                                    runner.config)
    for i in range(runner.w.counted_until):
        batch = runner.stream.batch(i)
        runner.check(batch, runner.serve(batch))
    runner.check_contents()
    if runner.failed:
        raise AssertionError(f"{runner.failed} wrong answers: "
                             f"{runner.errors[:3]}")
    shards = [
        (shard.injector.schedule(), shard.resilient.stats.snapshot())
        for shard in runner.svc.shards
    ]
    return shards, modeled_snapshot(runner.svc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    shadow = LedgerShadow()
    shadow.install()
    try:
        shadowed = drive(args.seed)
    except AssertionError as err:
        print(f"shadow: FAIL after {shadow.calls} verifies: {err}")
        return 1
    finally:
        shadow.uninstall()
    HBPlusTree.verify_mirror = oracle_verify
    try:
        whole_image = drive(args.seed)
    finally:
        HBPlusTree.verify_mirror = LEDGER_VERIFY

    faults = sum(len(schedule) for schedule, _stats in shadowed[0])
    print(f"shadow: {WORKLOAD} seed {args.seed}: {shadow.calls} verifies "
          f"({shadow.results}), {faults} injected faults")
    if shadowed != whole_image:
        for sid, (a, b) in enumerate(zip(shadowed[0], whole_image[0])):
            if a != b:
                print(f"shadow: FAIL shard {sid} differs from the "
                      f"whole-image run")
        if shadowed[1] != whole_image[1]:
            print(f"shadow: FAIL modeled counters {shadowed[1]} != "
                  f"{whole_image[1]}")
        return 1
    print("shadow: PASS: every verify equalled the whole-image compare; "
          "schedules, resilience stats and counters are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
