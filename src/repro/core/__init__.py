"""The paper's contribution: the hybrid CPU-GPU B+-tree.

* :mod:`repro.core.hybrid` — the base both hybrid trees share (the
  section 5.4 bucket flow and the T1-T4 cost model),
* :mod:`repro.core.hbtree_implicit` — implicit HB+-tree (section 5.2),
* :mod:`repro.core.hbtree` — regular HB+-tree,
* :mod:`repro.core.buckets` / :mod:`repro.core.pipeline` — bucket
  decomposition and the sequential / pipelined / double-buffered bucket
  scheduling strategies (section 5.4, Figs 5-6),
* :mod:`repro.core.load_balance` — the D/R load balancing scheme and
  its discovery algorithm (section 5.5, Algorithm 1),
* :mod:`repro.core.update` — batch update execution (section 5.6),
* :mod:`repro.core.batching` — sorted/deduplicated bucket execution,
  the one bucket pipeline every serving path runs (DESIGN.md §8),
* :mod:`repro.core.resilience` — fault-tolerant execution around an
  engine: retries, mirror checksum repair, circuit-breaker degradation
  to CPU-only service and recovery (beyond the paper; DESIGN.md §7).
"""

from repro.core.batching import (
    BatchingEngine,
    BatchStats,
    BucketPlan,
    SortedDelta,
    measure_sorted_delta,
    plan_bucket,
)
from repro.core.buckets import iter_buckets, num_buckets
from repro.core.hbtree import HBPlusTree, MirrorSyncStats
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import DiscoveryResult, LoadBalancer
from repro.core.pipeline import BucketStrategy, PipelineSimulator
from repro.core.resilience import (
    CircuitBreaker,
    GpuUnavailable,
    ResilienceConfig,
    ResilienceStats,
    ResilientHBPlusTree,
)
from repro.core.mixed import (
    ConcurrentQueryEngine,
    MixedRunResult,
    OptimisticMixedEngine,
    OptimisticRunResult,
)
from repro.core.update import (
    AsyncBatchUpdater,
    SyncUpdater,
    UpdateStats,
)

__all__ = [
    "HBPlusTree",
    "ImplicitHBPlusTree",
    "BatchingEngine",
    "BatchStats",
    "BucketPlan",
    "SortedDelta",
    "measure_sorted_delta",
    "plan_bucket",
    "MirrorSyncStats",
    "ResilientHBPlusTree",
    "ResilienceConfig",
    "ResilienceStats",
    "CircuitBreaker",
    "GpuUnavailable",
    "iter_buckets",
    "num_buckets",
    "BucketStrategy",
    "PipelineSimulator",
    "LoadBalancer",
    "DiscoveryResult",
    "AsyncBatchUpdater",
    "SyncUpdater",
    "UpdateStats",
    "ConcurrentQueryEngine",
    "MixedRunResult",
    "OptimisticMixedEngine",
    "OptimisticRunResult",
]
