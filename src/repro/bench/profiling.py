"""Instrumented profiling of CPU-side tree search for the figures.

The regular and implicit profilers live with the walks they run
(:func:`repro.core.hybrid.profile_regular` /
:func:`~repro.core.hybrid.profile_implicit`, re-exported here): each
replays the memory access sequence of a software-pipelined multi-query
run (level by level across the batch, Algorithm 2's order) through one
vectorised walk, on a warm-up half and then a measured half.  FAST
runs its scalar instrumented lookups.  :func:`cpu_tree_performance`
turns a profile into throughput and latency.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

# profile_regular / profile_implicit are re-exported
from repro.core.hybrid import profile_implicit, profile_regular, steady_profile
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.fast_tree import FastTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import CpuCostModel, CpuQueryProfile


def _fast_walk(tree: FastTree, queries: np.ndarray) -> None:
    for key in queries.tolist():
        tree.lookup(int(key), instrument=True)


def profile_fast(
    tree: FastTree, queries: np.ndarray, warm: bool = True
) -> CpuQueryProfile:
    """Memory profile of FAST lookups (one line per d_L binary levels)."""
    if tree.mem is None:
        raise ValueError("tree must be built with a MemorySystem to profile")
    return steady_profile(tree, queries, warm, _fast_walk,
                          tree.lines_per_query)


def cpu_tree_performance(
    tree,
    machine: MachineConfig,
    queries: np.ndarray,
    algorithm: Optional[NodeSearchAlgorithm] = None,
    pipeline_len: Optional[int] = None,
    threads: Optional[int] = None,
) -> Tuple[float, float, CpuQueryProfile]:
    """(throughput_qps, latency_ns, profile) of a CPU-side tree."""
    if isinstance(tree, ImplicitCpuBPlusTree):
        profile = profile_implicit(tree, queries)
    elif isinstance(tree, RegularCpuBPlusTree):
        profile = profile_regular(tree, queries)
    elif isinstance(tree, FastTree):
        profile = profile_fast(tree, queries)
    else:
        raise TypeError(f"cannot profile a {type(tree).__name__}")
    cycles_override = None
    if isinstance(tree, FastTree):
        cycles_override = FastTree.COMPUTE_CYCLES_PER_LINE
    model = CpuCostModel(
        machine.cpu,
        algorithm=algorithm
        or getattr(tree, "algorithm", NodeSearchAlgorithm.HIERARCHICAL_SIMD),
        pipeline_len=(
            pipeline_len if pipeline_len is not None
            else machine.software_pipeline_len
        ),
        threads=threads,
        cycles_per_node=cycles_override,
    )
    return model.throughput_qps(profile), model.latency_ns(profile), profile
