"""Benchmarks of the fault-injection + resilience layer.

* the fault-rate sweep: throughput must decay gracefully (weakly
  monotone, small tolerance for transient costs near the degraded
  floor) with zero wrong answers at every rate;
* the recovery timeline: degraded service must return to the hybrid
  throughput level once faults clear;
* raw overhead of the resilience wrapper on a fault-free tree.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_table
from repro.bench.figures.resilience import (
    MONOTONE_TOLERANCE,
    run_fault_recovery,
    run_fault_resilience,
)
from repro.core.hbtree import HBPlusTree
from repro.core.resilience import ResilientHBPlusTree
from repro.faults import FaultInjector, FaultPlan


@pytest.mark.benchmark(group="fault-resilience")
def test_fault_rate_sweep(benchmark):
    """Graceful degradation: monotone decay, correct at every rate."""
    table = run_table(benchmark, run_fault_resilience)
    assert all(r["wrong_answers"] == 0 for r in table.rows)
    qps = table.column("mqps")
    for lo, hi in zip(qps[1:], qps[:-1]):
        assert lo <= hi * MONOTONE_TOLERANCE, (
            f"throughput rose with the fault rate: {qps}"
        )
    # the sweep must actually exercise degradation at the top end
    assert table.rows[-1]["mode"] == "cpu-only"
    assert table.rows[0]["mqps"] > table.rows[-1]["mqps"]


@pytest.mark.benchmark(group="fault-resilience")
def test_degradation_and_recovery(benchmark):
    """Throughput returns to the hybrid level after faults clear."""
    table = run_table(benchmark, run_fault_recovery)
    assert all(r["wrong_answers"] == 0 for r in table.rows)
    healthy = table.value("mqps", phase="healthy")
    faulty = table.value("mqps", phase="gpu faulty")
    recovered = table.value("mqps", phase="recovered")
    assert table.value("mode", phase="gpu faulty") == "cpu-only"
    assert table.value("mode", phase="recovered") == "hybrid"
    assert faulty < healthy
    assert recovered > faulty
    assert recovered > 0.9 * healthy


@pytest.mark.benchmark(group="fault-resilience")
def test_resilience_wrapper_overhead(benchmark, bench_data, m1):
    """Raw cost of serving through the wrapper with no faults."""
    keys, values, queries = bench_data
    tree = HBPlusTree(keys, values, machine=m1)
    r = ResilientHBPlusTree(
        tree, injector=FaultInjector(FaultPlan.none(seed=1))
    )
    out = benchmark(r.engine.lookup_batch, queries)
    assert np.all(out != tree.spec.max_value)
    assert r.stats.served_cpu == 0
