"""Lifecycle benchmark: cold per-key build vs bulk load vs restore.

Builds the same hybrid regular tree three ways at the largest config —
per-key inserts into an empty tree (the naive cold start), the
sort-based bottom-up bulk load, and a restore from a checksummed
snapshot — and times each.

The report carries the gates :func:`gate_failures` checks
(``python -m repro.bench.gates lifecycle`` → ``BENCH_pr6.json``):
restore is strictly faster than the cold per-key build, and bulk load
beats per-key too.  What the three builds answer, the restore ladder
and warm restart are tier-1 tests (``tests/test_lifecycle.py``).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.hbtree import HBPlusTree
from repro.lifecycle import SnapshotManager
from repro.obs import Observability
from repro.obs.export import collect_all
from repro.platform.configs import MachineConfig, machine_m1
from repro.workloads.generators import generate_dataset


def cold_build_per_key(keys, values, machine: MachineConfig) -> HBPlusTree:
    """The naive cold start: per-key inserts into an empty hybrid
    tree, then one full mirror upload.  The baseline the bulk load
    and the restore are timed against."""
    tree = HBPlusTree((), (), machine=machine)
    for k, v in zip(tree.spec.coerce(keys).tolist(),
                    np.asarray(values, dtype=tree.spec.dtype).tolist()):
        tree.cpu_tree.insert(k, v)
    tree.mirror_i_segment()
    return tree


def run_lifecycle(smoke: bool = False) -> Dict[str, Any]:
    n = 1 << 13 if smoke else 1 << 17
    machine = machine_m1()
    keys, values = generate_dataset(n, seed=606)

    # -- the three build paths -----------------------------------------
    t0 = time.perf_counter_ns()
    cold_build_per_key(keys, values, machine)
    perkey_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    bulk_tree = HBPlusTree(keys, values, machine=machine)
    bulk_ns = time.perf_counter_ns() - t0

    split = AdaptiveController.for_tree(bulk_tree).split()

    obs = Observability()
    with tempfile.TemporaryDirectory(prefix="repro_lifecycle_") as tmp:
        manager = SnapshotManager(Path(tmp) / "snaps", obs=obs)
        t0 = time.perf_counter_ns()
        snap_path = manager.save(bulk_tree, split=split)
        snapshot_ns = time.perf_counter_ns() - t0

        t0 = time.perf_counter_ns()
        manager.restore_latest(machine=machine)
        restore_ns = time.perf_counter_ns() - t0

        lifecycle_metrics = collect_all(obs.metrics, lifecycle=manager)

    return {
        "mode": "smoke" if smoke else "full",
        "machine": "M1",
        "keys": int(n),
        "split": {"depth": split[0], "ratio": split[1]},
        "perkey_build_ns": int(perkey_ns),
        "bulk_build_ns": int(bulk_ns),
        "snapshot_ns": int(snapshot_ns),
        "restore_ns": int(restore_ns),
        "snapshot_bytes": int(manager.stats.snapshot_bytes),
        "snapshot_path": snap_path.name if snap_path else None,
        "restore_speedup_vs_perkey": (
            perkey_ns / restore_ns if restore_ns else float("inf")
        ),
        "bulk_speedup_vs_perkey": (
            perkey_ns / bulk_ns if bulk_ns else float("inf")
        ),
        "lifecycle_metrics": {
            k: v for k, v in lifecycle_metrics.items()
            if k.startswith(("lifecycle", "live.lifecycle"))
        },
    }


def gate_failures(report: Dict[str, Any]) -> List[str]:
    """The regression gate: empty list when the report passes."""
    failures: List[str] = []
    if report["restore_ns"] >= report["perkey_build_ns"]:
        failures.append(
            f"restore ({report['restore_ns']} ns) not strictly faster "
            f"than cold per-key build ({report['perkey_build_ns']} ns)"
        )
    if report["bulk_build_ns"] >= report["perkey_build_ns"]:
        failures.append(
            f"bulk load ({report['bulk_build_ns']} ns) not faster than "
            f"per-key build ({report['perkey_build_ns']} ns)"
        )
    return failures
