"""Lifecycle benchmark: cold per-key build vs bulk load vs restore.

Builds the same hybrid regular tree three ways at the largest config —
per-key inserts into an empty tree (the naive cold start), the
sort-based bottom-up bulk load, and a restore from a checksummed
snapshot — and times each.  Then runs the deterministic storage-fault
drill: a torn write mid-snapshot (must cost only the snapshot), a
silently bit-rotted newest snapshot (restore must fall back to the
previous intact one), and an all-corrupt directory (restore must
degrade to cold bulk-build).

The report carries the gates :func:`gate_failures` checks
(``python -m repro.bench.gates lifecycle`` → ``BENCH_pr6.json``):

* restore is strictly faster than the cold per-key build (and bulk
  load beats per-key too);
* all three trees answer the same probe batch bit-identically;
* warm restart resumes pinned at the committed (D, R) with no
  init-time profile;
* every drill scenario lands on the documented recovery rung.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.hbtree import HBPlusTree
from repro.faults import FaultInjector, FaultPlan
from repro.lifecycle import SnapshotManager, warm_restart
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


def _probe(keys: np.ndarray, size: int = 4096) -> np.ndarray:
    """Half stored keys, half guaranteed misses (hits shifted by one
    land in gaps or on neighbours — either way, ground truth is shared
    by every correct tree)."""
    half = min(size // 2, len(keys))
    rng = np.random.default_rng(1207)
    hits = rng.choice(keys, size=half, replace=False)
    misses = hits + np.uint64(1)
    return np.concatenate([hits, misses])


def run_lifecycle(smoke: bool = False) -> Dict[str, Any]:
    n = 1 << 13 if smoke else 1 << 17
    machine = machine_m1()
    keys, values = generate_dataset(n, seed=606)
    probe = _probe(keys)

    # -- the three build paths -----------------------------------------
    t0 = time.perf_counter_ns()
    cold_tree = cold_build_per_key(keys, values, machine)
    perkey_ns = time.perf_counter_ns() - t0

    t0 = time.perf_counter_ns()
    bulk_tree = HBPlusTree(keys, values, machine=machine)
    bulk_ns = time.perf_counter_ns() - t0

    controller = AdaptiveController.for_tree(bulk_tree)
    split = controller.split()

    obs = Observability()
    with tempfile.TemporaryDirectory(prefix="repro_lifecycle_") as tmp:
        manager = SnapshotManager(Path(tmp) / "snaps", obs=obs)
        t0 = time.perf_counter_ns()
        snap_path = manager.save(bulk_tree, split=split)
        snapshot_ns = time.perf_counter_ns() - t0

        t0 = time.perf_counter_ns()
        restored = manager.restore_latest(machine=machine)
        restore_ns = time.perf_counter_ns() - t0

        warm = warm_restart(manager, machine=machine)
        warm_balancer = warm.controller.balancer if warm.controller else None
        warm_pinned = (
            warm.controller is not None
            and warm.controller.split() == split
        )
        # a warm balancer must carry *no* init-time profile: the class
        # only annotates cpu_level_ns, so an unprofiled instance lacks
        # the attribute entirely
        warm_unprofiled = (
            warm_balancer is not None
            and not hasattr(warm_balancer, "cpu_level_ns")
        )

        expected = bulk_tree.lookup_batch(probe)
        bit_identical = bool(
            np.array_equal(expected, cold_tree.lookup_batch(probe))
            and np.array_equal(expected, restored.tree.lookup_batch(probe))
            and np.array_equal(expected, warm.tree.lookup_batch(probe))
        )

        drill = _fault_drill(bulk_tree, split, probe, machine, keys, values)
        lifecycle_metrics = collect_all(obs.metrics, lifecycle=manager)

    report: Dict[str, Any] = {
        "mode": "smoke" if smoke else "full",
        "machine": "M1",
        "keys": int(n),
        "probe_queries": int(len(probe)),
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
        "restore_source": restored.source,
        "mirror_verified": bool(restored.mirror_verified),
        "restored_split": {
            "depth": restored.split[0], "ratio": restored.split[1],
        } if restored.split else None,
        "warm_pinned": bool(warm_pinned),
        "warm_unprofiled": bool(warm_unprofiled),
        "bit_identical": bit_identical,
        "drill": drill,
        "lifecycle_metrics": {
            k: v for k, v in lifecycle_metrics.items()
            if k.startswith(("lifecycle", "live.lifecycle"))
        },
    }
    return report


def _fault_drill(tree, split, probe, machine, keys, values
                 ) -> Dict[str, Any]:
    """The three deterministic storage-fault scenarios, replayable
    from their seeds."""
    expected = tree.lookup_batch(probe)

    # 1. torn write mid-snapshot: the live tree and the directory's
    # set of valid snapshots must both be untouched
    with tempfile.TemporaryDirectory(prefix="drill_torn_") as tmp:
        manager = SnapshotManager(tmp)
        manager.save(tree, split=split)
        before = [p.name for p in manager.snapshots()]
        torn = SnapshotManager(
            tmp, injector=FaultInjector(FaultPlan(seed=9, torn_write=1.0))
        )
        path = torn.save(tree, split=split)
        after = [p.name for p in torn.snapshots()]
        torn_result = {
            "save_failed": path is None,
            "snapshot_failures": torn.stats.snapshot_failures,
            "dir_unchanged": before == after,
            "live_tree_identical": bool(
                np.array_equal(expected, tree.lookup_batch(probe))
            ),
        }

    # 2. newest snapshot silently bit-rotted: restore must fall back
    # to the previous intact snapshot
    with tempfile.TemporaryDirectory(prefix="drill_rot_") as tmp:
        clean = SnapshotManager(tmp)
        intact = clean.save(tree, split=split)
        rotten = SnapshotManager(
            tmp,
            injector=FaultInjector(FaultPlan(seed=11, storage_bitflip=1.0)),
        )
        corrupt = rotten.save(tree, split=split)  # succeeds, silently bad
        result = clean.restore_latest(machine=machine)
        fallback_result = {
            "corrupt_written": corrupt is not None,
            "source": result.source,
            "skipped": result.skipped,
            "fell_back_to_intact": (
                result.path is not None
                and intact is not None
                and result.path.name == intact.name
            ),
            "restored_identical": bool(
                np.array_equal(expected, result.tree.lookup_batch(probe))
            ),
        }

    # 3. every snapshot corrupt: restore must degrade to cold bulk-build
    with tempfile.TemporaryDirectory(prefix="drill_cold_") as tmp:
        rotten = SnapshotManager(
            tmp,
            injector=FaultInjector(FaultPlan(seed=13, storage_bitflip=1.0)),
        )
        rotten.save(tree, split=split)
        result = rotten.restore_latest(
            machine=machine,
            cold_source=lambda: HBPlusTree(keys, values, machine=machine),
        )
        cold_result = {
            "source": result.source,
            "skipped": result.skipped,
            "cold_builds": rotten.stats.cold_builds,
            "restored_identical": bool(
                np.array_equal(expected, result.tree.lookup_batch(probe))
            ),
        }

    return {
        "torn_write": torn_result,
        "bitrot_fallback": fallback_result,
        "all_corrupt_cold": cold_result,
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
    if not report["bit_identical"]:
        failures.append(
            "cold / bulk / restored / warm trees disagree on the probe batch"
        )
    if report["restore_source"] != "snapshot":
        failures.append("clean restore did not come from a snapshot")
    if not report["mirror_verified"]:
        failures.append(
            "pristine-tree restore did not reproduce the capture-time "
            "GPU mirror image bit-for-bit"
        )
    if not report["warm_pinned"]:
        failures.append("warm restart did not pin the committed (D, R)")
    if not report["warm_unprofiled"]:
        failures.append("warm restart ran an init-time reprofiling window")
    torn = report["drill"]["torn_write"]
    if not (torn["save_failed"] and torn["dir_unchanged"]
            and torn["live_tree_identical"]):
        failures.append(f"torn-write drill failed: {torn}")
    rot = report["drill"]["bitrot_fallback"]
    if not (rot["corrupt_written"] and rot["source"] == "snapshot"
            and rot["skipped"] >= 1 and rot["fell_back_to_intact"]
            and rot["restored_identical"]):
        failures.append(f"bit-rot fallback drill failed: {rot}")
    cold = report["drill"]["all_corrupt_cold"]
    if not (cold["source"] == "cold" and cold["skipped"] >= 1
            and cold["restored_identical"]):
        failures.append(f"all-corrupt cold drill failed: {cold}")
    return failures
