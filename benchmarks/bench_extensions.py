"""Benchmarks for the section-7 future-work extensions.

* GPU-assisted batch updates vs the CPU asynchronous method,
* the generic hybrid framework's planning cost and its decisions,
* CSS-tree vs implicit B+-tree lookup (a structural ablation).
"""

import numpy as np
import pytest

from benchmarks.conftest import run_table
from repro.bench.figures.extensions import run_framework, run_gpu_update
from repro.core.framework import CssTreeAdapter, HybridFramework
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.cpu.css_tree import CssTree
from repro.memsim.mainmem import MemorySystem


@pytest.mark.benchmark(group="ext-gpu-update")
def test_gpu_assisted_vs_cpu_async_updates(benchmark):
    """Future work #1: the descent offload should win for big batches."""
    table = run_table(benchmark, run_gpu_update)
    assert table.rows[-1]["speedup"] > 1.0


@pytest.mark.benchmark(group="ext-framework")
def test_framework_decisions(benchmark):
    """Future work #2: mode per (structure, machine)."""
    table = run_table(benchmark, run_framework)
    m2_rows = table.select(machine="M2")
    assert all(r["mode"] in ("balanced", "cpu-only") for r in m2_rows)
    m1_rows = table.select(machine="M1")
    assert all(r["mode"] == "hybrid" for r in m1_rows)


@pytest.mark.benchmark(group="ext-framework")
def test_framework_planning_cost(benchmark, bench_data, m2):
    """Raw planning cost (measure + Algorithm 1 + bucket sweep)."""
    keys, values, queries = bench_data
    tree = ImplicitHBPlusTree(keys, values, machine=m2)

    def plan_once():
        return HybridFramework(tree, m2, sample=queries).plan()

    plan = benchmark(plan_once)
    assert plan.mode in ("balanced", "cpu-only")


@pytest.mark.benchmark(group="ext-framework")
def test_framework_execute_css(benchmark, bench_data, m1):
    keys, values, queries = bench_data
    css = CssTree(keys, values, mem=MemorySystem.from_spec(m1.cpu))
    framework = HybridFramework(CssTreeAdapter(css, m1), m1,
                                sample=queries)
    framework.plan()
    out = benchmark(framework.execute, queries)
    assert np.all(out != css.spec.max_value)


@pytest.mark.benchmark(group="ext-structures")
@pytest.mark.parametrize("structure", ["css", "implicit-b+"])
def test_structure_lookup_cost(benchmark, bench_data, structure):
    """CSS-tree vs implicit B+-tree: raw batch-lookup cost."""
    keys, values, queries = bench_data
    if structure == "css":
        tree = CssTree(keys, values)
    else:
        from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
        tree = ImplicitCpuBPlusTree(keys, values)
    benchmark(tree.lookup_batch, queries)
