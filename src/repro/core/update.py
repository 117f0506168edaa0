"""Batch update execution for the regular HB+-tree (paper section 5.6).

Two methods with a batch-size-dependent trade-off (Figs 13-14):

* **asynchronous** — updates run in main memory in parallel groups of
  16K.  Each logical thread descends to the last-level inner node,
  takes that node's lock and resolves the update in place; queries that
  would split or merge a node are deferred to a single-threaded pass
  (thanks to the 256-entry big leaves this is <1% of updates).  When
  the whole batch is done, the *entire* I-segment transfers to GPU
  memory once.
* **synchronized** — a single *modifying* thread executes updates and
  enqueues every modified inner node; a *synchronizing* thread streams
  each node's 1 + 2K cache lines to the GPU mirror concurrently.
  Per-node pushes ride an open copy stream, so their cost is dominated
  by bandwidth, but the method cannot amortize like the bulk transfer —
  hence the crossover: synchronized wins for small batches, asynchronous
  for large ones.  The batched synchronizing thread pushes exactly the
  nodes the batch wrote: :meth:`HBPlusTree.sync_nodes` diffs the inner
  pools' per-node version stamps against a mark taken before the batch
  (FB+-tree style), so a value-only overwrite pushes nothing and a leaf
  split pushes its two last-level nodes and their parent.  Only an
  upper-level split, a height change, a faulted push or a mirror that
  was already behind rebuilds the whole mirror.

Both methods write through the CPU tree's one batch primitive,
:meth:`~repro.cpu.btree_regular.RegularCpuBPlusTree.apply_batch`: the
upserts, then the deletes, in op order, with the result of per-op
inserts and deletes; the GPU mirror ends up consistent.  What differs
is the pricing and the mirror policy: the thread-level parallelism is
modeled in time, with lock conflicts and deferrals counted from the
actual access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.obs.stats import Stats
from repro.platform.costmodel import CpuCostModel, CpuQueryProfile

#: group size of the asynchronous method (section 5.6)
ASYNC_GROUP_SIZE = 16 * 1024

#: parallel speedup of the locked multi-threaded async modify phase —
#: the paper measures 3x over single-threaded (Fig 13a); lock and cache
#: coherence traffic, not core count, is the limit
ASYNC_PARALLEL_SPEEDUP = 3.0

#: per-update slowdown of lock acquisition in the async method
LOCK_OVERHEAD_FACTOR = 1.6


@dataclass
class UpdateStats(Stats):
    """Result of applying one update batch."""

    applied: int = 0
    deferred: int = 0
    lock_acquisitions: int = 0
    lock_conflicts: int = 0
    modify_ns: float = 0.0
    transfer_ns: float = 0.0
    #: inner nodes written to the mirror (every node on a rebuild)
    synced_nodes: int = 0
    #: pushes aborted by an injected fault; each one forces a full
    #: mirror rebuild that restores consistency
    sync_faults: int = 0

    @property
    def total_ns(self) -> float:
        return self.modify_ns + self.transfer_ns

    @property
    def deferred_fraction(self) -> float:
        total = self.applied + self.deferred
        return self.deferred / total if total else 0.0

    def throughput_qps(self, include_transfer: bool = True) -> float:
        total = self.applied + self.deferred
        t = self.total_ns if include_transfer else self.modify_ns
        if t <= 0:
            # empty/zero-cost batches report 0.0, not inf — the same
            # convention as the pipeline/engine throughput metrics, so
            # downstream aggregation (means, JSON) never sees inf
            return 0.0
        return total * 1e9 / t


def _measure_update_cost_ns(tree: HBPlusTree, sample_keys: np.ndarray) -> float:
    """Per-update cost of one thread: descend + leaf modification.

    Measured by instrumented descents over a sample (one batched
    :meth:`~repro.cpu.btree_regular.RegularCpuBPlusTree.charge_lookups`,
    identical to a scalar ``lookup(instrument=True)`` per key), converted
    by the cost model without software pipelining (updates are dependent
    operations and cannot be pipelined like lookups).
    """
    cpu_tree = tree.cpu_tree
    mem = tree.mem
    mem.reset_counters()
    cpu_tree.charge_lookups(sample_keys)
    counters = mem.counters
    profile = CpuQueryProfile.from_counters(
        counters, node_searches_per_query=2.0 * cpu_tree.height + 1
    )
    model = CpuCostModel(tree.machine.cpu, pipeline_len=1, threads=1)
    # leaf modification: shifting half a big leaf on average (write
    # bandwidth), plus routing-key maintenance
    shift_bytes = cpu_tree.leaves.capacity_pairs * tree.spec.size_bytes
    shift_ns = shift_bytes / tree.machine.cpu.mem_bandwidth_gbs
    return model.query_ns(profile) + shift_ns


def _per_update_ns(tree: HBPlusTree, keys: np.ndarray,
                   deletes: np.ndarray) -> float:
    """Per-update cost of a batch, sampled from its first 512 upserts,
    or from its deletes when it has none: a delete descends exactly
    like an upsert, so a delete-only batch is not free."""
    sample = keys if len(keys) else deletes
    if not len(sample):
        return 0.0
    return _measure_update_cost_ns(tree, sample[:512])


def _op_stream(keys: np.ndarray, values: np.ndarray, deletes: np.ndarray):
    """A batch as one op stream, upserts then deletes: the ``(keys,
    values, is_delete)`` arguments of ``apply_batch``."""
    return (
        np.concatenate([keys, deletes]),
        np.concatenate([values, np.zeros_like(deletes)]),
        np.arange(len(keys) + len(deletes)) >= len(keys),
    )


class AsyncBatchUpdater:
    """The asynchronous parallel update method."""

    def __init__(self, tree: HBPlusTree, threads: Optional[int] = None):
        self.tree = tree
        self.threads = threads if threads is not None else tree.machine.cpu.threads

    def apply(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        deletes: Sequence[int] = (),
        transfer: bool = True,
    ) -> UpdateStats:
        """Apply a batch of upserts (and optional deletes)."""
        keys = np.asarray(keys, dtype=self.tree.spec.dtype)
        values = np.asarray(values, dtype=self.tree.spec.dtype)
        deletes = np.asarray(deletes, dtype=self.tree.spec.dtype)
        stats = UpdateStats()
        cpu_tree = self.tree.cpu_tree
        per_update_ns = _per_update_ns(self.tree, keys, deletes)

        spec = self.tree.spec
        op_key, op_val, op_del = _op_stream(keys, values, deletes)
        for start in range(0, len(op_key), ASYNC_GROUP_SIZE):
            gk = op_key[start: start + ASYNC_GROUP_SIZE]
            gv = op_val[start: start + ASYNC_GROUP_SIZE]
            is_up = ~op_del[start: start + ASYNC_GROUP_SIZE]
            # classify the whole group in one vectorised pass: batch
            # descent + batch presence check + projected leaf occupancy
            # replace the former per-op descend/lookup pair
            nodes, _lines = cpu_tree.descend_batch(gk)
            present = cpu_tree.lookup_batch(gk) != spec.max_value
            # live occupancy, not raw extent: on a gapped tree the
            # extent includes interleaved gaps and would over-defer
            sizes0 = cpu_tree.leaf_occupancy(nodes)
            _u, first_idx = np.unique(gk, return_index=True)
            is_first = np.zeros(len(gk), dtype=bool)
            is_first[first_idx] = True
            is_new = is_up & ~present & is_first
            # per-op projected leaf size: starting occupancy plus the
            # net effect of every earlier op in the group on that leaf
            # (grouped exclusive cumsum over the op order)
            delta = is_new.astype(np.int64)
            delta -= (~is_up & present).astype(np.int64)
            order = np.argsort(nodes, kind="stable")
            sn, sd = nodes[order], delta[order]
            csum = np.cumsum(sd)
            newrun = np.r_[True, sn[1:] != sn[:-1]]
            run_id = np.cumsum(newrun) - 1
            run_start = np.flatnonzero(newrun)
            base = np.where(run_start > 0, csum[run_start - 1], 0)
            prior = np.empty(len(gk), dtype=np.int64)
            prior[order] = csum - sd - base[run_id]
            projected = sizes0 + prior
            causes_split = is_new & (
                projected >= cpu_tree.leaves.capacity_pairs
            )
            causes_merge = ~is_up & (projected <= 1)
            deferred_mask = causes_split | causes_merge
            keep = np.flatnonzero(~deferred_mask)
            defer = np.flatnonzero(deferred_mask)
            stats.lock_acquisitions += len(keep)
            # the classification prices the group; the writes go in op
            # order, reusing this group's batch descent
            cpu_tree.apply_batch(gk, gv, is_delete=~is_up, nodes=nodes)
            stats.applied += len(keep)
            # lock conflicts: two logical threads hitting the same
            # last-level node simultaneously; estimated from collisions
            # within thread-count-sized windows of the actual pattern
            t = max(1, self.threads)
            touched = nodes[keep]
            conflicts = 0
            if len(touched):
                pad = (-len(touched)) % t
                # pad with distinct sentinels so they never collide
                w = np.concatenate(
                    [touched, -np.arange(1, pad + 1, dtype=np.int64)]
                )
                w = np.sort(w.reshape(-1, t), axis=1)
                conflicts = int(np.sum(w[:, 1:] == w[:, :-1]))
            stats.lock_conflicts += conflicts
            stats.deferred += len(defer)
            parallel_ns = len(keep) * per_update_ns * LOCK_OVERHEAD_FACTOR / min(
                ASYNC_PARALLEL_SPEEDUP, self.threads
            )
            conflict_ns = conflicts * per_update_ns * 0.5
            serial_ns = len(defer) * per_update_ns * 4.0  # splits are costly
            stats.modify_ns += parallel_ns + conflict_ns + serial_ns
        if transfer:
            stats.transfer_ns = self.tree.mirror_i_segment()
        else:
            self.tree.mirror_i_segment()  # keep the mirror consistent
        return stats


class SyncUpdater:
    """The synchronized update method (modifying + synchronizing thread).

    The synchronizing thread's queue drains once per batch through
    :meth:`HBPlusTree.sync_nodes`: the exact dirty set from the
    version-stamp diff, deduplicated and coalesced into ranged
    transfers on the open copy stream.
    """

    def __init__(self, tree: HBPlusTree):
        self.tree = tree

    def apply(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        deletes: Sequence[int] = (),
    ) -> UpdateStats:
        keys = np.asarray(keys, dtype=self.tree.spec.dtype)
        values = np.asarray(values, dtype=self.tree.spec.dtype)
        deletes = np.asarray(deletes, dtype=self.tree.spec.dtype)
        stats = UpdateStats()
        per_update_ns = _per_update_ns(self.tree, keys, deletes)
        push_ns, rebuild_ns = self._write_and_sync(
            stats, keys, values, deletes
        )
        stats.modify_ns = stats.applied * per_update_ns
        # the synchronizing thread overlaps the modifying thread; only
        # the excess shows up as extra time.  Pushes ride one open copy
        # stream: bandwidth per node plus bookkeeping per push, and one
        # T_init for the stream.  A rebuild is one full upload instead.
        stats.transfer_ns = (
            max(0.0, push_ns - stats.modify_ns)
            + (self.tree.machine.pcie.t_init_ns if push_ns else 0.0)
            + rebuild_ns
        )
        return stats

    def _write_and_sync(self, stats, keys, values, deletes):
        """Apply every op, then one dirty-set sync; returns the modeled
        ``(push_ns, rebuild_ns)``."""
        tree = self.tree
        mark = tree.mirror_mark()
        op_key, op_val, op_del = _op_stream(keys, values, deletes)
        tree.cpu_tree.apply_batch(op_key, op_val, is_delete=op_del)
        stats.applied = len(op_key)
        mirror = tree.sync_nodes(mark)
        stats.synced_nodes = mirror.nodes
        stats.sync_faults = mirror.faults
        if mirror.rebuilt:
            return 0.0, mirror.time_ns
        return mirror.stream_ns, 0.0
