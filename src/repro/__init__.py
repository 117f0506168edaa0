"""HB+-tree: a hybrid CPU-GPU B+-tree for in-memory indexing.

A faithful, fully simulated reproduction of

    A. Shahvarani, H.-A. Jacobsen.  "A Hybrid B+-tree as Solution for
    In-Memory Indexing on CPU-GPU Heterogeneous Computing Platforms",
    SIGMOD 2016.

Quick start::

    import numpy as np
    from repro import ImplicitHBPlusTree, machine_m1
    from repro.workloads import generate_dataset

    keys, values = generate_dataset(1 << 16)
    tree = ImplicitHBPlusTree(keys, values, machine=machine_m1())
    assert tree.lookup(int(keys[0])) == int(values[0])

    costs = tree.bucket_costs()          # the paper's T1..T4
    print(costs.throughput_qps("double_buffered", 16384) / 1e6, "MQPS")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
per-figure reproduction results.
"""

from repro.core.batching import (
    BatchingEngine,
    BatchStats,
    BucketPlan,
    SortedDelta,
    measure_sorted_delta,
    plan_bucket,
)
from repro.core.framework import CssTreeAdapter, HybridFramework, HybridPlan
from repro.core.gpu_update import GpuAssistedUpdater
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import LoadBalancer
from repro.core.mixed import ConcurrentQueryEngine, OptimisticMixedEngine
from repro.core.pipeline import BucketStrategy, PipelineSimulator
from repro.core.resilience import (
    GpuUnavailable,
    ResilienceConfig,
    ResilienceStats,
    ResilientHBPlusTree,
)
from repro.core.update import AsyncBatchUpdater, SyncUpdater
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree, GapStats
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.io import build_index, load_index, save_index
from repro.lifecycle import (
    RestoreError,
    SnapshotCorrupt,
    SnapshotManager,
    bulk_load,
    warm_restart,
)
from repro.service import (
    AdmissionPolicy,
    HashRouter,
    IndexService,
    QuotaConfig,
    QuotaExceeded,
    RangeRouter,
    ServiceConfig,
    Shard,
    ShardOverloaded,
    TenantQuotas,
    TokenBucket,
)
from repro.validate import ValidationError, validate_index
from repro.keys import KEY32, KEY64, KeySpec, key_spec
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.platform.configs import (
    MachineConfig,
    machine_m1,
    machine_m2,
    machine_modern,
)
from repro.platform.costmodel import BucketCosts, CpuCostModel, CpuQueryProfile
from repro.workloads.generators import generate_dataset

__version__ = "1.0.0"

__all__ = [
    "HBPlusTree",
    "ImplicitHBPlusTree",
    "BatchingEngine",
    "BatchStats",
    "BucketPlan",
    "SortedDelta",
    "measure_sorted_delta",
    "plan_bucket",
    "ResilientHBPlusTree",
    "ResilienceConfig",
    "ResilienceStats",
    "GpuUnavailable",
    "FaultPlan",
    "FaultInjector",
    "FaultKind",
    "LoadBalancer",
    "HybridFramework",
    "HybridPlan",
    "CssTreeAdapter",
    "CssTree",
    "GpuAssistedUpdater",
    "save_index",
    "load_index",
    "build_index",
    "SnapshotManager",
    "SnapshotCorrupt",
    "RestoreError",
    "bulk_load",
    "warm_restart",
    "BucketStrategy",
    "PipelineSimulator",
    "AsyncBatchUpdater",
    "SyncUpdater",
    "ConcurrentQueryEngine",
    "OptimisticMixedEngine",
    "GappedCpuBPlusTree",
    "GapStats",
    "ImplicitCpuBPlusTree",
    "RegularCpuBPlusTree",
    "FastTree",
    "NodeSearchAlgorithm",
    "KeySpec",
    "KEY64",
    "KEY32",
    "key_spec",
    "MemorySystem",
    "PageConfig",
    "MachineConfig",
    "machine_m1",
    "machine_m2",
    "machine_modern",
    "AdmissionPolicy",
    "HashRouter",
    "IndexService",
    "QuotaConfig",
    "QuotaExceeded",
    "RangeRouter",
    "ServiceConfig",
    "Shard",
    "ShardOverloaded",
    "TenantQuotas",
    "TokenBucket",
    "validate_index",
    "ValidationError",
    "BucketCosts",
    "CpuCostModel",
    "CpuQueryProfile",
    "generate_dataset",
    "__version__",
]
