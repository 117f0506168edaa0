"""Concurrent search/update query execution (paper appendix B.3).

The HB+-tree's query-processing threads can resolve both searches and
updates; updates take the target last-level node's lock, searches are
lock-free (but pay the mutex-capable code path's overhead).  The
synchronized I-segment maintenance additionally streams every modified
node to the GPU from a synchronizing thread; the asynchronous variant
defers to one bulk transfer.

:class:`ConcurrentQueryEngine` executes a :class:`QueryMix` *both*
functionally (every search resolved, every update applied, GPU mirror
left consistent) and temporally, via the discrete-event thread
scheduler of :mod:`repro.concurrency` — lock contention on hot leaves
emerges from the actual access pattern instead of a formula.

:class:`OptimisticMixedEngine` is the post-paper answer to the same
workload (ROADMAP item 2): gapped leaves (BS-tree) make most inserts
in-place writes with a short locked span, and FB+-tree-style optimistic
reads drop the ``MUTEX_OVERHEAD`` tax — readers snapshot per-node
version stamps, descend latch-free, and retry from the deepest
validated node when a writer raced them.  Retries are counted from the
*actual* schedule overlap of searches and writers on the same leaf,
and the mirror is maintained by ranged dirty-node transfers (the exact
dirty set falls out of the version-stamp diff) instead of a full
rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.concurrency import Operation, ScheduleResult, ThreadScheduler
from repro.core.hbtree import (
    SYNC_NODE_OVERHEAD_NS,
    HBPlusTree,
    MirrorMark,
    MirrorSyncStats,
)
from repro.core.hybrid import profile_regular
from repro.core.update import _measure_update_cost_ns
from repro.faults import FaultError
from repro.platform.costmodel import CpuCostModel
from repro.workloads.queries import QueryMix

#: slowdown of the update-capable query threads on the pure-search path
#: (mutex checks, synchronization points — appendix B.3's observation)
MUTEX_OVERHEAD = 1.25

#: how often the optimistic engine retries a faulted mirror sync before
#: giving up and propagating the fault (each retry re-consults the
#: deterministic injector, so a finite-rate plan always drains)
SYNC_FAULT_RETRIES = 8


def _cost_sample(tree: HBPlusTree) -> Optional[Tuple[np.ndarray, float]]:
    """The mixed engines' cost probe: up to 2048 stored keys drawn
    without replacement (seed 67) and the plain CPU lookup cost over
    them, or None on an empty tree.

    Without replacement: the sample never exceeds the population, and
    duplicates would skew the cache profile toward re-touched lines.
    """
    sample = tree.key_sample(67, 2048)
    if len(sample) == 0:
        return None
    profile = profile_regular(tree.cpu_tree, sample)
    return sample, CpuCostModel(tree.machine.cpu).query_ns(profile)


@dataclass
class MixedRunResult:
    """Functional + temporal outcome of one mixed bucket."""

    search_results: np.ndarray
    schedule: ScheduleResult
    sync_transfer_ns: float
    method: str

    @property
    def total_ns(self) -> float:
        return max(self.schedule.makespan_ns, self.sync_transfer_ns)

    @property
    def throughput_ops(self) -> float:
        if self.total_ns <= 0:
            # empty/zero-cost mixes report 0.0, not a ZeroDivisionError
            # nor inf — the PR-4 zero-time convention shared by every
            # throughput metric, so downstream aggregation never breaks
            return 0.0
        return self.schedule.operations * 1e9 / self.total_ns


@dataclass
class OptimisticRunResult(MixedRunResult):
    """:class:`MixedRunResult` plus the optimistic engine's accounting."""

    #: optimistic-read retries (search/writer overlaps on one leaf)
    retries: int = 0
    #: modeled time of all retries (partial re-descents)
    retry_ns: float = 0.0
    #: inner nodes the mirror sync wrote: the version-stamp dirty set,
    #: or every node when it rebuilt
    dirty_nodes: int = 0
    #: ranged PCIe transfers that carried them
    sync_transfers: int = 0
    #: bytes pushed to the device by the mirror maintenance
    sync_bytes: int = 0
    #: True when a structural change (or a faulted sync) forced the
    #: full mirror rebuild instead of ranged dirty-node transfers
    mirror_rebuilt: bool = False
    #: injected faults absorbed by the sync retry ladder
    sync_faults: int = 0
    #: write-path behaviour of the batch (gapped trees only)
    gap_writes: int = 0
    shift_writes: int = 0
    splits: int = 0
    per_op_write_ns: List[float] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        # retries ride the same threads; the additive term spreads the
        # total retry work across them
        threads = max(1, self.schedule.threads)
        return max(
            self.schedule.makespan_ns + self.retry_ns / threads,
            self.sync_transfer_ns,
        )


class ConcurrentQueryEngine:
    """Executes mixed buckets on the regular HB+-tree, CPU-side."""

    def __init__(self, tree: HBPlusTree, threads: Optional[int] = None):
        self.tree = tree
        self.threads = threads if threads is not None else tree.machine.cpu.threads
        self._search_ns, self._update_ns = self._measure_costs()

    def _measure_costs(self):
        sample = _cost_sample(self.tree)
        if sample is None:
            return 100.0, 500.0
        stored, lookup_ns = sample
        update_ns = _measure_update_cost_ns(self.tree, stored)
        return lookup_ns * MUTEX_OVERHEAD, update_ns * MUTEX_OVERHEAD

    def run(self, mix: QueryMix, method: str = "async") -> MixedRunResult:
        """Execute a mix; ``method`` picks the mirror maintenance."""
        if method not in ("async", "sync"):
            raise ValueError("method must be 'async' or 'sync'")
        tree = self.tree
        cpu_tree = tree.cpu_tree

        # the writes go in mix order as one op stream; its batch descent
        # keys the modeled leaf locks (pre-batch ids: a structural
        # change forces the full mirror rebuild below anyway, so a stale
        # id can only cost a redundant modeled lock)
        is_delete = (
            mix.is_delete
            if mix.is_delete is not None
            else np.zeros(len(mix.is_update), dtype=bool)
        )
        is_write = mix.is_update | is_delete
        op_del = is_delete[is_write]
        op_key = np.empty(len(op_del), dtype=tree.spec.dtype)
        op_val = np.zeros(len(op_del), dtype=tree.spec.dtype)
        op_key[op_del] = mix.delete_keys
        op_key[~op_del] = mix.update_keys
        op_val[~op_del] = mix.update_values
        op_nodes = cpu_tree.descend_batch(op_key)[0]
        cpu_tree.apply_batch(op_key, op_val, is_delete=op_del, nodes=op_nodes)

        # the operation list for the scheduler
        operations: List[Operation] = []
        write_iter = iter(zip(op_del.tolist(), op_nodes.tolist()))
        # the update cost splits ~55% descent (lock-free) / 45% locked
        upd_work = self._update_ns * 0.55
        upd_locked = self._update_ns * 0.45
        for write in is_write.tolist():
            if write:
                is_del, node = next(write_iter)
                operations.append(Operation(
                    work_ns=upd_work, lock=("leaf", int(node)),
                    locked_ns=upd_locked,
                    tag="delete" if is_del else "update",
                ))
            else:
                operations.append(Operation(
                    work_ns=self._search_ns, tag="search",
                ))
        schedule = ThreadScheduler(self.threads).run(operations)

        # mirror maintenance
        if method == "sync":
            push_ns = tree.push_ns() + SYNC_NODE_OVERHEAD_NS
            sync_ns = len(op_key) * push_ns + (
                tree.machine.pcie.t_init_ns if len(op_key) else 0.0
            )
        else:
            sync_ns = 0.0  # async: one bulk transfer, excluded as in Fig 21
        tree.mirror_i_segment()

        results = cpu_tree.lookup_batch(
            np.asarray(mix.search_keys, dtype=tree.spec.dtype)
        )
        return MixedRunResult(
            search_results=results,
            schedule=schedule,
            sync_transfer_ns=sync_ns,
            method=method,
        )


class OptimisticMixedEngine:
    """Gapped-leaf, latch-free mixed read/write engine.

    Works on any :class:`HBPlusTree`, but the wins come from
    ``HBPlusTree(..., gapped=True)``:

    * **searches** run latch-free at the plain lookup cost (no
      ``MUTEX_OVERHEAD``); a search that overlapped a writer's locked
      span on its target leaf pays a *retry* — a partial re-descent
      from the deepest node whose version stamp still validates, i.e.
      one inner-path re-read plus the leaf line out of the ``3h + 1``
      lines a full descent touches;
    * **writers** keep the per-leaf lock but hold it only for the
      actual write: one pair for an in-place gap write, the shifted
      run for a short shift, a leaf rewrite for a split — measured
      per-op from the tree's :class:`~repro.cpu.gapped.GapStats`
      deltas, not assumed.  So this engine writes one op at a time
      through ``insert``/``delete``: each is a one-op ``apply_batch``,
      one in-place row write, where a group would merge the ops it
      prices separately;
    * the **mirror** is maintained by :meth:`HBPlusTree.sync_nodes`,
      the same dirty-set sync as the synchronized updater: the
      version-stamp diff of the inner pools flows through ranged
      transfers, and only an upper-level split, a height change, a
      faulted transfer or pushes dearer than one full upload fall back
      to the rebuild; injected :class:`~repro.faults.FaultError` are
      absorbed by a bounded retry ladder.
    """

    def __init__(self, tree: HBPlusTree, threads: Optional[int] = None):
        self.tree = tree
        self.threads = threads if threads is not None else tree.machine.cpu.threads
        self._search_ns, self._descend_ns = self._measure_costs()

    # ------------------------------------------------------------------
    # cost measurement

    def _measure_costs(self) -> Tuple[float, float]:
        sample = _cost_sample(self.tree)
        if sample is None:
            return 80.0, 80.0
        # latch-free read path: plain lookup cost, no mutex tax.  A
        # writer's unlocked phase is the same descent.
        return sample[1], sample[1]

    def _write_cost_ns(self, stats_delta: Tuple[int, int, int, int]) -> float:
        """Locked-phase cost of one write from its GapStats delta."""
        gap_w, shifted_pairs, splits, rewrites = stats_delta
        spec = self.tree.spec
        bw = self.tree.machine.cpu.mem_bandwidth_gbs
        pair_bytes = 2 * spec.size_bytes
        cap = self.tree.cpu_tree.leaves.capacity_pairs
        ns = spec.cache_line / bw  # routing-key / version maintenance
        ns += gap_w * pair_bytes / bw
        ns += shifted_pairs * pair_bytes / bw
        # a split rewrites both halves; a batch rewrite spreads one leaf
        ns += splits * cap * pair_bytes / bw
        ns += rewrites * cap * pair_bytes / bw
        return ns

    def _compact_write_ns(self) -> float:
        """Fallback locked cost on a non-gapped tree: half-leaf shift."""
        spec = self.tree.spec
        cap = self.tree.cpu_tree.leaves.capacity_pairs
        return (
            cap / 2 * 2 * spec.size_bytes
            / self.tree.machine.cpu.mem_bandwidth_gbs
        )

    # ------------------------------------------------------------------
    # mirror maintenance

    def _sync_dirty(self, mark: MirrorMark) -> MirrorSyncStats:
        """:meth:`HBPlusTree.sync_nodes`, retrying its fault-absorbing
        rebuild when that faulted too: at most ``SYNC_FAULT_RETRIES``
        rebuilds follow the first fault.  On exhaustion (a rate-1.0
        plan, or genuinely dead hardware) the typed fault propagates
        to the caller, which may degrade on it the way the resilience
        policy's ``serve_updates`` does for an engine write."""
        tree = self.tree
        try:
            return tree.sync_nodes(mark)
        except FaultError as exc:
            last = exc
        # the first fault, and the rebuild sync_nodes absorbed it with
        faults = 2
        for _attempt in range(SYNC_FAULT_RETRIES - 1):
            try:
                t = tree.mirror_i_segment()
            except FaultError as exc:
                faults += 1
                last = exc
                continue
            cpu_tree = tree.cpu_tree
            return MirrorSyncStats(
                nodes=cpu_tree.upper.count + cpu_tree.last.count,
                transfers=1, time_ns=t, rebuilt=True, faults=faults,
            )
        raise last

    # ------------------------------------------------------------------
    # execution

    def run(self, mix: QueryMix) -> OptimisticRunResult:
        tree = self.tree
        cpu_tree = tree.cpu_tree
        gap_stats = getattr(cpu_tree, "gap_stats", None)

        mark = tree.mirror_mark()

        # one batch descent per op class (no scalar descent loops); the
        # ids key the modeled leaf locks and retries only, so a split
        # that moves a few of them cannot change any answer or the
        # mirror, which the version diff below keeps exact
        search_nodes = (
            cpu_tree.descend_batch(mix.search_keys)[0]
            if len(mix.search_keys)
            else np.empty(0, dtype=np.int64)
        )
        upd_nodes = (
            cpu_tree.descend_batch(mix.update_keys)[0]
            if len(mix.update_keys)
            else np.empty(0, dtype=np.int64)
        )
        del_nodes = (
            cpu_tree.descend_batch(mix.delete_keys)[0]
            if len(mix.delete_keys)
            else np.empty(0, dtype=np.int64)
        )

        # --- functional execution + schedule construction --------------
        operations: List[Operation] = []
        op_is_search: List[bool] = []
        op_leaf: List[int] = []
        per_op_write_ns: List[float] = []
        searches: List[int] = []
        search_iter = iter(zip(mix.search_keys.tolist(),
                               search_nodes.tolist()))
        update_iter = iter(zip(mix.update_keys.tolist(),
                               mix.update_values.tolist(),
                               upd_nodes.tolist()))
        delete_iter = iter(zip(mix.delete_keys.tolist(), del_nodes.tolist()))
        is_delete = (
            mix.is_delete
            if mix.is_delete is not None
            else np.zeros(len(mix.is_update), dtype=bool)
        )

        def snap() -> Tuple[int, int, int, int]:
            if gap_stats is None:
                return (0, 0, 0, 0)
            return (
                gap_stats.gap_writes,
                gap_stats.shifted_pairs,
                gap_stats.splits,
                gap_stats.leaf_rewrites,
            )

        for is_update, is_del in zip(mix.is_update.tolist(),
                                     is_delete.tolist()):
            if is_del or is_update:
                before = snap()
                if is_del:
                    key, node = next(delete_iter)
                    cpu_tree.delete(int(key))
                else:
                    key, value, node = next(update_iter)
                    cpu_tree.insert(int(key), int(value))
                if gap_stats is None:
                    write_ns = self._compact_write_ns()
                else:
                    after = snap()
                    write_ns = self._write_cost_ns(
                        tuple(a - b for a, b in zip(after, before))
                    )
                per_op_write_ns.append(write_ns)
                operations.append(Operation(
                    work_ns=self._descend_ns,
                    lock=("leaf", int(node)),
                    locked_ns=write_ns,
                    tag="delete" if is_del else "update",
                ))
                op_is_search.append(False)
                op_leaf.append(int(node))
            else:
                key, node = next(search_iter)
                searches.append(int(key))
                operations.append(Operation(
                    work_ns=self._search_ns, tag="search",
                ))
                op_is_search.append(True)
                op_leaf.append(int(node))
        schedule = ThreadScheduler(self.threads).run(
            operations, record_spans=True
        )

        # --- optimistic-read retries from the actual conflict pattern --
        retries = self._count_retries(schedule, op_is_search, op_leaf)
        # a retry re-validates from the deepest intact node: in the
        # common one-leaf-write case that is a re-read of the inner
        # path's last node plus the leaf line — 4 of the ~3h+1 lines a
        # full descent touches
        height = cpu_tree.height
        retry_unit_ns = self._search_ns * 4.0 / (3.0 * height + 1.0)
        retry_ns = retries * retry_unit_ns

        # --- mirror maintenance: version diff -> ranged transfers ------
        bytes0 = tree.link.stats.bytes_to_device
        sync_stats = self._sync_dirty(mark)
        if sync_stats.rebuilt:
            modeled_sync_ns = sync_stats.time_ns
        else:
            # the ranged pushes ride one open copy stream concurrent
            # with the query threads (the SyncUpdater convention):
            # bandwidth per node, bookkeeping per push, one T_init —
            # not a full round-trip latency per transfer
            modeled_sync_ns = sync_stats.stream_ns + (
                tree.machine.pcie.t_init_ns if sync_stats.nodes else 0.0
            )
        sync_bytes = tree.link.stats.bytes_to_device - bytes0

        results = (
            cpu_tree.lookup_batch(np.asarray(searches, dtype=tree.spec.dtype))
            if searches
            else np.empty(0, dtype=tree.spec.dtype)
        )
        gs = gap_stats
        return OptimisticRunResult(
            search_results=results,
            schedule=schedule,
            sync_transfer_ns=modeled_sync_ns,
            method="optimistic",
            retries=retries,
            retry_ns=retry_ns,
            dirty_nodes=sync_stats.nodes,
            sync_transfers=sync_stats.transfers,
            sync_bytes=int(sync_bytes),
            mirror_rebuilt=sync_stats.rebuilt,
            sync_faults=sync_stats.faults,
            gap_writes=gs.gap_writes if gs else 0,
            shift_writes=gs.shift_writes if gs else 0,
            splits=gs.splits if gs else 0,
            per_op_write_ns=per_op_write_ns,
        )

    @staticmethod
    def _count_retries(
        schedule: ScheduleResult,
        op_is_search: List[bool],
        op_leaf: List[int],
    ) -> int:
        """Search/writer overlaps on the same leaf, from the timeline.

        A search retries once per writer whose *locked* interval
        overlapped the search's span on the search's target leaf —
        each such writer bumped the leaf's version while the reader
        was between its snapshot and its validation.
        """
        spans = schedule.spans
        if spans is None or not spans:
            return 0
        is_search = np.asarray(op_is_search, dtype=bool)
        leaf = np.asarray(op_leaf, dtype=np.int64)
        start = np.asarray([s.start_ns for s in spans])
        granted = np.asarray([s.granted_ns for s in spans])
        end = np.asarray([s.end_ns for s in spans])
        retries = 0
        for node in np.unique(leaf):
            on_leaf = leaf == node
            readers = np.flatnonzero(on_leaf & is_search)
            writers = np.flatnonzero(on_leaf & ~is_search)
            if len(readers) == 0 or len(writers) == 0:
                continue
            # overlap: writer locked [g, e) intersects reader [s, t)
            overlap = (
                (granted[writers][None, :] < end[readers][:, None])
                & (start[readers][:, None] < end[writers][None, :])
            )
            retries += int(np.count_nonzero(overlap))
        return retries
