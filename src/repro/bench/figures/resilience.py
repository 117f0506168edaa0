"""Fault-resilience experiments (beyond the paper; DESIGN.md §7).

* ``fault_resilience`` — sweep the uniform fault rate 0%..100% and
  measure end-to-end modeled throughput of the resilient HB+-tree,
  verifying every answer against the ground truth.  Graceful
  degradation means the curve decays (weakly) monotonically to the
  CPU-only floor, with zero wrong answers at every rate.
* ``fault_recovery`` — drive the tree into degradation at 100% faults,
  clear the faults, and show throughput returning to the hybrid level.

Both experiments are fully deterministic: the fault schedule derives
from ``(plan seed, site, op index)``, so re-running reproduces every
number exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.bench.figures.common import dataset_and_queries, paper_n
from repro.bench.harness import ExperimentTable, stats_row
from repro.core.hbtree import HBPlusTree
from repro.core.resilience import ResilienceConfig, ResilientHBPlusTree
from repro.faults import FaultInjector, FaultPlan
from repro.platform.configs import MachineConfig, machine_m1

#: fault rates of the sweep (each category of FaultPlan.uniform)
QUICK_RATES = (0.0, 0.05, 0.25, 0.5, 1.0)
FULL_RATES = (0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)

#: tolerance of the monotone-decay check: rates near the degraded
#: floor are allowed to differ by transient (pre-trip) costs
MONOTONE_TOLERANCE = 1.03


def _resilient_tree(
    keys: np.ndarray,
    values: np.ndarray,
    machine: MachineConfig,
    rate: float,
    seed: int,
) -> Tuple[ResilientHBPlusTree, FaultInjector]:
    tree = HBPlusTree(keys, values, machine=machine)
    injector = FaultInjector(FaultPlan.uniform(rate, seed=seed))
    return ResilientHBPlusTree(tree, injector=injector), injector


def _serve_and_check(
    r: ResilientHBPlusTree,
    keys: np.ndarray,
    lut: dict,
    batches: int,
    batch_size: int,
    rng: np.random.Generator,
) -> int:
    """Serve ``batches`` batches; return the number of wrong answers."""
    wrong = 0
    for _ in range(batches):
        q = rng.choice(keys, size=batch_size)
        out = r.engine.lookup_batch(q)
        expected = np.asarray([lut[int(k)] for k in q], dtype=out.dtype)
        wrong += int(np.count_nonzero(out != expected))
    return wrong


def run_fault_resilience(
    machine: Optional[MachineConfig] = None,
    full: bool = False,
    n: int = 1 << 14,
    seed: int = 42,
) -> ExperimentTable:
    """Throughput vs injected fault rate, correctness verified."""
    machine = machine or machine_m1()
    if full:
        n = 1 << 15
    rates = FULL_RATES if full else QUICK_RATES
    # enough batches that the floor, not the pre-degradation transient,
    # dominates the high-rate averages
    batches = 32 if full else 24
    table = ExperimentTable(
        "fault_resilience",
        f"modeled throughput vs uniform fault rate (tree {paper_n(n)})",
    )
    keys, values, _q = dataset_and_queries(n, seed=seed)
    lut = {int(k): int(v) for k, v in zip(keys, values)}
    for rate in rates:
        r, injector = _resilient_tree(keys, values, machine, rate, seed)
        rng = np.random.default_rng(7)
        wrong = _serve_and_check(
            r, keys, lut, batches, r.bucket_size, rng
        )
        s = r.stats
        table.add(
            rate=rate,
            mqps=round(s.throughput_qps() / 1e6, 2),
            wrong_answers=wrong,
            mode="cpu-only" if r.degraded else "hybrid",
            penalty_pct=round(100.0 * s.penalty_ns / s.served_ns, 1),
            faults=injector.stats.total_faults,
            **stats_row(
                s.snapshot(),
                keys=(
                    "served_hybrid",
                    "served_cpu",
                    "transfer_retries",
                    "kernel_retries",
                    "checksum_failures",
                    "degradations",
                    "recoveries",
                ),
            ),
        )
    table.note(
        "deterministic schedule: same seed reproduces every cell; "
        "higher rates inject strict supersets of faults (common random "
        "numbers), so throughput decays monotonically to the CPU floor"
    )
    return table


def run_fault_recovery(
    machine: Optional[MachineConfig] = None,
    full: bool = False,
    n: int = 1 << 14,
    seed: int = 42,
) -> ExperimentTable:
    """Healthy -> faulty (degraded) -> faults cleared (recovered)."""
    machine = machine or machine_m1()
    if full:
        n = 1 << 15
    batches = 16 if full else 8
    table = ExperimentTable(
        "fault_recovery",
        f"degradation and recovery timeline (tree {paper_n(n)})",
    )
    keys, values, _q = dataset_and_queries(n, seed=seed)
    lut = {int(k): int(v) for k, v in zip(keys, values)}
    # recover quickly once faults clear: probe every 4 degraded batches
    config = ResilienceConfig(probe_interval=4)
    tree = HBPlusTree(keys, values, machine=machine)
    injector = FaultInjector(FaultPlan.none(seed=seed))
    r = ResilientHBPlusTree(tree, injector=injector, config=config)
    rng = np.random.default_rng(7)

    def phase(name: str, serve_batches: int) -> None:
        q0, t0 = r.stats.served_queries, r.stats.served_ns
        wrong = _serve_and_check(
            r, keys, lut, serve_batches, r.bucket_size, rng
        )
        dq, dt = r.stats.served_queries - q0, r.stats.served_ns - t0
        table.add(
            phase=name,
            mqps=round(dq * 1e9 / dt / 1e6, 2),
            wrong_answers=wrong,
            mode="cpu-only" if r.degraded else "hybrid",
            recoveries=r.stats.recoveries,
        )

    phase("healthy", batches)
    injector.plan = FaultPlan.uniform(1.0, seed=seed)
    phase("gpu faulty", batches)
    injector.plan = FaultPlan.none(seed=seed)
    # detection window: degraded service until a probe notices the
    # faults cleared (bounded; at most a few probe intervals)
    detect = 0
    detect_wrong = 0
    while r.degraded and detect < 4 * config.probe_interval:
        detect_wrong += _serve_and_check(r, keys, lut, 1, r.bucket_size, rng)
        detect += 1
    table.add(
        phase="recovering",
        mqps=None,
        wrong_answers=detect_wrong,
        mode="cpu-only" if r.degraded else "hybrid",
        recoveries=r.stats.recoveries,
        detection_batches=detect,
    )
    phase("recovered", batches)
    table.note(
        "after the faults clear, a recovery probe re-mirrors the "
        "I-segment and throughput returns to the hybrid level"
    )
    return table
