"""Micro-benchmarks of the GPU simulation substrate itself.

Not a paper figure: these quantify how expensive the literal SIMT
interpreter is relative to the vectorised kernel twins, which is the
reason the benchmarks use the twins (the tests assert equivalence).
The frontier-kernel gate (DESIGN.md §13) is
``python -m repro.bench.gates frontier``.
"""

import numpy as np
import pytest

from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.gpusim.kernels.frontier_search import launch_frontier_search
from repro.gpusim.kernels.implicit_search import launch_implicit_search
from repro.gpusim.memory import coalesce
from repro.workloads.generators import generate_dataset


@pytest.fixture(scope="module")
def small_tree(m1):
    keys, values = generate_dataset(8192, seed=5)
    return ImplicitHBPlusTree(keys, values, machine=m1), keys


@pytest.mark.benchmark(group="simt")
def test_literal_simt_kernel_cost(benchmark, small_tree):
    tree, keys = small_tree
    sample = np.asarray(keys[:32], dtype=np.uint64)
    benchmark.pedantic(
        lambda: launch_implicit_search(
            tree.device, tree.iseg_buffer, tree.level_offsets,
            tree.gpu_depth, tree.cpu_tree.fanout, sample,
        ),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="simt")
def test_literal_frontier_kernel_cost(benchmark, small_tree):
    tree, keys = small_tree
    sample = np.asarray(keys[:32], dtype=np.uint64)
    benchmark.pedantic(
        lambda: launch_frontier_search(
            tree.device, tree.iseg_buffer, tree.level_offsets,
            tree.gpu_depth, tree.cpu_tree.fanout, sample,
            level_sizes=tree.level_sizes,
        ),
        rounds=3, iterations=1,
    )


@pytest.mark.benchmark(group="simt")
def test_vectorized_kernel_cost(benchmark, small_tree):
    tree, keys = small_tree
    sample = np.asarray(keys[:2048], dtype=np.uint64)
    benchmark(lambda: tree.gpu_search_bucket(sample))


@pytest.mark.benchmark(group="simt")
def test_vectorized_frontier_kernel_cost(benchmark, small_tree):
    tree, keys = small_tree
    sample = np.unique(np.asarray(keys[:2048], dtype=np.uint64))
    benchmark(lambda: tree.gpu_search_bucket(sample, kernel="frontier"))


@pytest.mark.benchmark(group="simt")
def test_coalescer_cost(benchmark):
    ranges = [(i * 8, 8) for i in range(32)]
    benchmark(coalesce, ranges)

