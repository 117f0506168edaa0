#!/usr/bin/env python3
"""The mirror write ledger and the batch write, shadowed on benchmark
traffic.

Builds the seed-1 ``mixed_rw_drill`` service exactly as
``perfbench/run.py`` does and drives batches 0-109 (the warm-up and
the counted window) twice:

* with every ``HBPlusTree.verify_mirror`` call checked against the
  whole-image compare of :mod:`tests.mirror_oracles`, failing on the
  first row-set difference, and every
  ``RegularCpuBPlusTree.apply_batch`` call checked against the per-op
  loop of :mod:`tests.write_oracles` run on a copy of the tree, failing
  on the first difference in pools, free lists or moved version stamps;
* with the whole-image compare in place of the ledger.

Every answer is checked against the workload's reference map, and the
two runs must leave every shard with the same fault schedule
(``injector.schedule()``), the same ``ResilienceStats`` and the same
modeled counters.  At seed 1 that record must also equal the golden in
``golden/drill_resilience_seed1.json``, so a change that moves a fault
draw, a resilience counter or a modeled counter fails here even when
both runs agree.  Not a tier-1 test (the file is not named
``test_*``): it builds a 2^20-key service.  Run from the repository
root::

    python tests/shadow_mirror_ledger.py [--seed N]

Exits 0 when the ledger held and the record matches the golden, 1
otherwise.  To re-record the golden (only when a change is meant to
move those counters)::

    python tests/shadow_mirror_ledger.py --record > tests/golden/drill_resilience_seed1.json
"""

from __future__ import annotations

import argparse
import json
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
from tests.write_oracles import WriteShadow
from workloads import WORKLOADS

WORKLOAD = "mixed_rw_drill"
GOLDEN_SEED = 1
GOLDEN = os.path.join(HERE, "golden", "drill_resilience_seed1.json")


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


def as_json(record):
    """The record in the golden's form (JSON has no tuples)."""
    shards, modeled = record
    return json.loads(json.dumps({
        "shards": [{"schedule": schedule, "resilience": stats}
                   for schedule, stats in shards],
        "modeled": modeled,
    }))


def golden_diff(record) -> list:
    """Where ``record`` departs from the stored golden."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = as_json(record)
    if len(got["shards"]) != len(golden["shards"]):
        return [f"{len(got['shards'])} shards, golden has "
                f"{len(golden['shards'])}"]
    pairs = list(enumerate(zip(got["shards"], golden["shards"])))
    diffs = [f"shard {sid} fault schedule" for sid, (a, b) in pairs
             if a["schedule"] != b["schedule"]]
    tables = [(f"shard {sid}", a["resilience"], b["resilience"])
              for sid, (a, b) in pairs]
    tables.append(("modeled", got["modeled"], golden["modeled"]))
    for where, a, b in tables:
        diffs += [f"{where} {key} {a.get(key)} != golden {b.get(key)}"
                  for key in sorted(set(a) | set(b))
                  if a.get(key) != b.get(key)]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--record", action="store_true",
                        help="print the seed's record as golden JSON "
                             "and exit")
    args = parser.parse_args(argv)
    if args.record:
        json.dump(as_json(drive(args.seed)), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0

    shadow, writes = LedgerShadow(), WriteShadow()
    shadow.install()
    writes.install()
    try:
        shadowed = drive(args.seed)
    except AssertionError as err:
        print(f"shadow: FAIL after {shadow.calls} verifies and "
              f"{writes.calls} batch writes: {err}")
        return 1
    finally:
        shadow.uninstall()
        writes.uninstall()
    HBPlusTree.verify_mirror = oracle_verify
    try:
        whole_image = drive(args.seed)
    finally:
        HBPlusTree.verify_mirror = LEDGER_VERIFY

    faults = sum(len(schedule) for schedule, _stats in shadowed[0])
    print(f"shadow: {WORKLOAD} seed {args.seed}: {shadow.calls} verifies "
          f"({shadow.results}), {writes.calls} batch writes "
          f"({writes.ops} ops), {faults} injected faults")
    if shadowed != whole_image:
        for sid, (a, b) in enumerate(zip(shadowed[0], whole_image[0])):
            if a != b:
                print(f"shadow: FAIL shard {sid} differs from the "
                      f"whole-image run")
        if shadowed[1] != whole_image[1]:
            print(f"shadow: FAIL modeled counters {shadowed[1]} != "
                  f"{whole_image[1]}")
        return 1
    if args.seed == GOLDEN_SEED:
        diffs = golden_diff(shadowed)
        if diffs:
            for diff in diffs:
                print(f"shadow: FAIL {diff}")
            return 1
        print(f"shadow: record equals {os.path.relpath(GOLDEN, ROOT)}")
    print("shadow: PASS: every verify equalled the whole-image compare, "
          "every batch write the per-op loop; schedules, resilience stats "
          "and counters are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
