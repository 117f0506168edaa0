"""Sorted/deduplicated bucket execution (the batch execution engine).

The paper's throughput story rests on memory coalescing: teams of a
warp that read the *same* inner-node line share one 64-byte transaction
(section 5.3).  Arrival-order buckets squander that — neighbouring
queries land on unrelated subtrees, so nearly every team pays its own
transaction.  This module restructures each bucket before the GPU
stage:

1. **sort + deduplicate** the bucket's queries (``np.unique``), so the
   level-wise descent walks monotone node-id streams in which adjacent
   teams share lines (the FPGA batch-search result of Tzschoppe et al.
   and the lane-friendly batch layouts of the BS-tree exploit the same
   structure);
2. run the GPU descent and the CPU leaf stage **once per distinct
   key**;
3. **scatter** the per-distinct results back to arrival order with the
   inverse permutation — callers observe bit-identical output to the
   naive unsorted path.

:func:`measure_sorted_delta` prices a workload's arrival-order
baseline through the same transaction model; ``bucket_costs`` and the
load balancer see the sorted gain through ``unique_fraction``.

The engine runs over both hybrid trees
(:class:`repro.core.hybrid.HybridTree`): it only needs
``gpu_search_bucket`` / ``cpu_finish_bucket`` / ``cpu_scan_bucket`` /
``modeled_transactions`` and the key ``spec``.  It is the one bucket
pipeline — plan, split, descend, finish or scan, scatter — and every
shard of the service reads through one.  A
:class:`repro.core.resilience.ResilientHBPlusTree` installs itself as
the engine's ``policy``, which then serves each lookup call and each
scan bucket.  The CPU/GPU overlap of the paper's Figs 5-6 is modeled
by :mod:`repro.core.pipeline`, not executed here.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.buckets import DEFAULT_BUCKET_SIZE, iter_buckets
from repro.core.load_balance import split_levels
from repro.gpusim.kernels.frontier_search import validate_kernel
from repro.obs import NULL_OBS
from repro.obs.stats import Stats


@dataclass(frozen=True)
class BucketPlan:
    """One bucket's sort/dedup/scatter decomposition."""

    #: the bucket's queries in arrival order
    queries: np.ndarray
    #: sorted distinct query keys (what the GPU stage actually sees)
    sorted_unique: np.ndarray
    #: per-arrival-query index into ``sorted_unique`` (the scatter map)
    inverse: np.ndarray

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def n_unique(self) -> int:
        return len(self.sorted_unique)

    @property
    def duplicate_fraction(self) -> float:
        """Share of the bucket's queries collapsed by deduplication."""
        if self.n_queries == 0:
            return 0.0
        return 1.0 - self.n_unique / self.n_queries

    def scatter(self, per_unique: np.ndarray) -> np.ndarray:
        """Expand per-distinct-key results back to arrival order."""
        return per_unique[self.inverse]


def plan_bucket(queries: Sequence, dtype=None) -> BucketPlan:
    """Sort + deduplicate one bucket; the inverse map restores order."""
    q = np.asarray(queries, dtype=dtype)
    if len(q) == 0:
        return BucketPlan(
            queries=q,
            sorted_unique=q,
            inverse=np.zeros(0, dtype=np.int64),
        )
    sorted_unique, inverse = np.unique(q, return_inverse=True)
    return BucketPlan(
        queries=q,
        sorted_unique=sorted_unique,
        inverse=inverse.reshape(-1).astype(np.int64),
    )


@dataclass
class BatchStats(Stats):
    """Aggregated accounting of an engine's executed buckets."""

    buckets: int = 0
    queries: int = 0
    unique: int = 0
    #: modeled GPU transactions actually charged (sorted batches)
    transactions: int = 0
    #: range scans executed through :meth:`BatchingEngine.run_scans`
    scans: int = 0
    #: tuples those scans returned (the leaf-chain work the cost model
    #: prices separately from point lookups)
    scan_tuples: int = 0

    exported = ("mean_scan_length",)

    @property
    def mean_scan_length(self) -> float:
        if self.scans == 0:
            return 0.0
        return self.scan_tuples / self.scans

    @property
    def transactions_per_query(self) -> float:
        """Charged transactions per *arrival* query (dedup included)."""
        if self.queries == 0:
            return 0.0
        return self.transactions / self.queries

    @property
    def duplicate_fraction(self) -> float:
        if self.queries == 0:
            return 0.0
        return 1.0 - self.unique / self.queries


class BatchingEngine:
    """Executes buckets sorted + deduplicated over a hybrid tree."""

    def __init__(self, tree, bucket_size: Optional[int] = None,
                 obs=None, balancer=None, kernel: Optional[str] = None):
        self.tree = tree
        self.bucket_size = bucket_size or getattr(
            getattr(tree, "machine", None), "bucket_size", DEFAULT_BUCKET_SIZE
        )
        if self.bucket_size <= 0:
            raise ValueError("bucket size must be positive")
        #: explicit GPU kernel override; ``None`` defers to the
        #: balancer's discovered kernel, then the tree default
        self.kernel = validate_kernel(kernel) if kernel is not None else None
        self.stats = BatchStats()
        #: serializes batch entry against :meth:`quiesce` so a snapshot
        #: taken under load sees a consistent tree between batches; the
        #: tree's own ``serve_lock`` is adopted when it has one, so
        #: direct tree scans (``tree.range_query``) and engine batches
        #: serialize against the same quiesce window
        self._serve_lock = getattr(tree, "serve_lock", None) \
            or threading.RLock()
        #: explicit :class:`repro.obs.Observability` override; None
        #: follows the tree's attached bundle dynamically
        self._obs = obs
        #: optional (D, R) split source — an
        #: :class:`repro.core.adaptive.AdaptiveController` or
        #: :class:`~repro.core.adaptive.StaticSplit`; consulted once
        #: per bucket, at dispatch, and fed the dispatched queries
        self.balancer = balancer
        #: the :class:`~repro.core.resilience.ResilientHBPlusTree` that
        #: serves each lookup call and scan bucket; None runs them directly
        self.policy = None
        if balancer is not None and not tree.supports_split_descent:
            raise ValueError(
                "a (D, R) balancer needs a tree with a mid-tree GPU "
                "resume path (supports_split_descent); the regular "
                "HB+-tree is balanced through ResilientHBPlusTree's "
                "mode controller instead"
            )

    @property
    def obs(self):
        if self._obs is not None:
            return self._obs
        return getattr(self.tree, "obs", NULL_OBS)

    # ------------------------------------------------------------------

    def _bucket_kernel(self) -> Optional[str]:
        """The GPU kernel for the next bucket (None = tree default)."""
        if self.kernel is not None:
            return self.kernel
        if self.balancer is not None:
            return getattr(self.balancer, "kernel", None)
        return None

    def _descend(self, plan: BucketPlan, note: bool = True):
        """The inner-level stage, split per the balancer when present.

        A split moves levels between processors and a kernel moves the
        traversal schedule, never results: (D=0, R=0) reproduces
        ``gpu_search_bucket`` exactly (codes *and* transaction count),
        and every kernel returns bit-identical leaves.

        The balancer is read and fed once per bucket.  The split and
        kernel are read *before* the bucket's arrival-order queries are
        fed back — feeding back may close a window and move the
        committed split, which must only affect the next bucket — so
        rebalance decisions are a deterministic function of the bucket
        sequence.  ``note=False`` leaves the feeding to the caller (a
        scan bucket is fed once, after its walk).
        """
        kernel = self._bucket_kernel()
        if self.balancer is None:
            return self.tree.gpu_search_bucket(
                plan.sorted_unique, kernel=kernel
            )
        depth, ratio = self.balancer.split()
        if note:
            self.balancer.note_bucket(plan.queries)
        levels = split_levels(plan.n_unique, depth, ratio, self.tree.height)
        nodes = self.tree.cpu_descend_top(plan.sorted_unique, levels)
        return self.tree.gpu_search_bucket_from(
            plan.sorted_unique, levels, nodes, kernel=kernel
        )

    def execute_bucket(self, queries: Sequence):
        """Run one bucket; returns ``(values, GpuSearchResult)``.

        ``values`` are in arrival order and bit-identical to
        ``tree.lookup_batch(queries)``.
        """
        obs = self.obs
        plan = plan_bucket(queries, dtype=self.tree.spec.dtype)
        if plan.n_queries == 0:
            empty = np.zeros(0, dtype=self.tree.spec.dtype)
            return empty, self.tree.gpu_search_bucket(
                plan.sorted_unique, kernel=self._bucket_kernel()
            )
        index = self.stats.buckets
        obs.emit(
            "bucket_start", index=index,
            n_queries=plan.n_queries, n_unique=plan.n_unique,
        )
        with obs.span("bucket", bucket=index, n_queries=plan.n_queries,
                      n_unique=plan.n_unique):
            with obs.span("gpu_descend", bucket=index):
                result = self._descend(plan)
            with obs.span("cpu_finish", bucket=index):
                per_unique = self.tree.cpu_finish_bucket(
                    plan.sorted_unique, result.codes
                )
        self.stats.buckets += 1
        self.stats.queries += plan.n_queries
        self.stats.unique += plan.n_unique
        self.stats.transactions += result.transactions
        obs.emit(
            "bucket_end", index=index,
            n_queries=plan.n_queries, n_unique=plan.n_unique,
            transactions=result.transactions,
        )
        return plan.scatter(per_unique), result

    def lookup_batch(self, queries: Sequence) -> np.ndarray:
        """Stream an arbitrary query array through sorted buckets.

        Keys of any integer dtype coerce once (with overflow check) via
        :meth:`repro.keys.KeySpec.coerce` — identical input handling to
        ``HBPlusTree.lookup_batch``.  A ``policy`` serves the call.
        """
        q = self.tree.spec.coerce(queries)
        if len(q) == 0:
            return np.zeros(0, dtype=self.tree.spec.dtype)
        with self._serve_lock:
            if self.policy is not None:
                return self.policy.serve_lookups(q)
            return self.lookup_buckets(q)

    def lookup_buckets(self, q: np.ndarray) -> np.ndarray:
        """The bucket loop over coerced keys, values in arrival order.

        No lock and no policy: the caller holds the serve lock.  Zero
        keys return an empty array (an empty tree's recovery probe).
        """
        parts = [
            self.execute_bucket(bucket)[0]
            for bucket in iter_buckets(q, self.bucket_size)
        ]
        return np.concatenate(parts) if parts else q.copy()

    # ------------------------------------------------------------------
    # range scans

    def scan_bucket(self, los: Sequence, his: Sequence):
        """Run one bucket of range scans; returns per-query pair lists.

        The start-key descents ride the exact point-lookup machinery —
        sort/dedup of the ``lo`` bounds, balancer-split levels, the
        discovered GPU kernel, fault-site screening — and the L-segment
        leaf-chain walk finishes on the CPU
        (``tree.cpu_scan_bucket``).  Results are bit-identical to
        ``[tree.cpu_tree.range_query(lo, hi) for lo, hi in zip(...)]``.
        """
        obs = self.obs
        plan = plan_bucket(los, dtype=self.tree.spec.dtype)
        his = np.asarray(his, dtype=self.tree.spec.dtype)
        if plan.n_queries == 0:
            return []
        index = self.stats.buckets
        obs.emit(
            "scan_bucket_start", index=index,
            n_queries=plan.n_queries, n_unique=plan.n_unique,
        )
        with obs.span("scan_bucket", bucket=index,
                      n_queries=plan.n_queries, n_unique=plan.n_unique):
            with obs.span("gpu_descend", bucket=index):
                result = self._descend(plan, note=False)
            with obs.span("cpu_scan", bucket=index):
                codes = result.codes[plan.inverse]
                scans = self.tree.cpu_scan_bucket(plan.queries, his, codes)
        tuples = sum(len(s) for s in scans)
        self.stats.buckets += 1
        self.stats.queries += plan.n_queries
        self.stats.unique += plan.n_unique
        self.stats.transactions += result.transactions
        self.stats.scans += plan.n_queries
        self.stats.scan_tuples += tuples
        if self.balancer is not None:
            # the bucket's one window entry: the tuple volume is known
            # only now, after the walk
            self.balancer.note_scan_bucket(plan.queries, tuples)
        obs.emit(
            "scan_bucket_end", index=index,
            n_queries=plan.n_queries, n_unique=plan.n_unique,
            transactions=result.transactions, tuples=tuples,
        )
        return scans

    def run_scans(self, los: Sequence, his: Sequence):
        """Batched range scans through the hybrid bucket machinery.

        For each pair ``(los[i], his[i])`` returns the list of stored
        ``(key, value)`` tuples with ``lo <= key <= hi``, in key order —
        bit-identical to the sequential per-tree walk.  Start-key
        descents go through the GPU bucket path (sharing the balancer's
        committed (kernel, D, R) and the fault-injection sites); the
        leaf-chain scans run vectorised on the L-segment.  A ``policy``
        serves each bucket.
        """
        lo_arr = self.tree.spec.coerce(los)
        hi_arr = self.tree.spec.coerce(his)
        if len(lo_arr) != len(hi_arr):
            raise ValueError("run_scans needs matching lo/hi arrays")
        if len(lo_arr) == 0:
            return []
        out = []
        with self._serve_lock, self.obs.span(
            "engine.run_scans", scans=len(lo_arr)
        ):
            serve = (self.scan_bucket if self.policy is None
                     else self.policy.serve_scan_bucket)
            for start in range(0, len(lo_arr), self.bucket_size):
                stop = start + self.bucket_size
                out.extend(serve(lo_arr[start:stop], hi_arr[start:stop]))
        return out

    @contextmanager
    def quiesce(self):
        """Hold serving still between batches (snapshot-under-load).

        Blocks until any in-flight :meth:`lookup_batch` drains, then
        keeps new batches parked while the caller (typically
        :meth:`repro.lifecycle.SnapshotManager.save_engine`) reads the
        tree.  Concurrent lookups before and after the window are
        bit-identical — quiescing orders batches, it never changes
        what any batch returns.
        """
        with self._serve_lock:
            yield self


@dataclass
class SortedDelta:
    """Measured sorted-vs-unsorted transaction delta on one workload."""

    queries: int
    unique: int
    sorted_transactions: int
    unsorted_transactions: int

    @property
    def sorted_per_query(self) -> float:
        return self.sorted_transactions / max(1, self.queries)

    @property
    def unsorted_per_query(self) -> float:
        return self.unsorted_transactions / max(1, self.queries)

    @property
    def gain(self) -> float:
        if self.unsorted_transactions <= 0:
            return 0.0
        return 1.0 - self.sorted_transactions / self.unsorted_transactions


def measure_sorted_delta(tree, queries: Sequence) -> SortedDelta:
    """Charge one workload through the transaction model both ways.

    Pure measurement — device counters and mirrors are untouched; used
    by tests, ``bucket_costs`` consumers and the wall-clock benchmark.
    """
    plan = plan_bucket(queries, dtype=tree.spec.dtype)
    return SortedDelta(
        queries=plan.n_queries,
        unique=plan.n_unique,
        sorted_transactions=tree.modeled_transactions(plan.sorted_unique),
        unsorted_transactions=tree.modeled_transactions(plan.queries),
    )
