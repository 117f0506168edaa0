"""The regular HB+-tree (paper section 5).

The CPU side is :class:`RegularCpuBPlusTree` unchanged — "the inner
nodes are identical" to the CPU-optimized tree (section 5.2).  The
I-segment (all inner nodes) is additionally mirrored into GPU device
memory, packed per node as ``index line | key lines | ref lines``
(1 + 2K cache lines, Fig 2c), upper-pool nodes first and last-level
nodes behind them.

Mirror detail: in each node's device copy the key of its *last used
slot* is pinned to the maximum representable value ("the last keys of
all inner nodes of HB+-tree are always set to the maximum", section
5.3) so the GPU kernel needs no node sizes and every query always finds
a successor — including probes beyond the largest stored key, which
fall through the rightmost path.

Search is the bucket flow of section 5.4 with the 3-step node search of
section 5.3 on the GPU; the result of the last-level search directly
addresses the target cache line inside the big leaf.  Batch updates are
implemented in :mod:`repro.core.update`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hybrid import HybridTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.gpusim.kernels.frontier_search import FRONTIER
from repro.gpusim.kernels.regular_search import (
    launch_regular_search,
    regular_search_vectorized,
)
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import CpuQueryProfile

@dataclass
class MirrorSyncStats:
    """Outcome of one batched dirty-node mirror sync."""

    nodes: int
    transfers: int
    time_ns: float
    #: True when the batch fell back to a full mirror rebuild (a dirty
    #: node lay outside the mirrored capacity)
    rebuilt: bool = False


class HBPlusTree(HybridTree):
    """Hybrid regular B+-tree over a machine's CPU + GPU."""

    name = "regular-hb+tree"
    COST_SAMPLE_SEED = 5

    def __init__(
        self,
        keys: Sequence[int] = (),
        values: Sequence[int] = (),
        machine: Optional[MachineConfig] = None,
        key_bits: int = 64,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_SMALL,
        algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.HIERARCHICAL_SIMD,
        fill: float = 1.0,
        injector=None,
        gapped: bool = False,
    ):
        if machine is None:
            raise ValueError("HBPlusTree requires a MachineConfig")
        super().__init__(machine, key_bits, mem)
        # ``gapped=True`` swaps in the BS-tree-style gapped-leaf CPU
        # tree: same inner-node layout (the mirror packs only inner
        # pools, so the device image is bit-identical for lookups),
        # but most inserts become in-place gap writes that dirty
        # exactly one last-level node
        tree_cls = GappedCpuBPlusTree if gapped else RegularCpuBPlusTree
        self.cpu_tree = tree_cls(
            keys,
            values,
            key_bits=key_bits,
            mem=self.mem,
            page_config=page_config,
            algorithm=algorithm,
            segment_prefix="hb_regular",
            fill=fill,
        )
        #: :class:`repro.faults.FaultInjector`, or None.  Attached
        #: *after* the initial mirror so a tree is always born
        #: consistent; faults hit operation, not construction.
        self.injector = None
        #: True whenever the GPU mirror may disagree with the CPU tree
        #: (a sync was interrupted mid-flight); cleared by a successful
        #: full :meth:`mirror_i_segment`
        self.mirror_stale = False
        self.mirror_i_segment()
        if injector is not None:
            self.attach_injector(injector)

    def attach_injector(self, injector) -> None:
        """Thread a :class:`repro.faults.FaultInjector` through the
        PCIe link, the GPU device, and this tree's sync path."""
        self.injector = injector
        self.link.injector = injector
        self.device.injector = injector

    # ------------------------------------------------------------------
    # GPU mirror

    @property
    def node_stride(self) -> int:
        """Elements per mirrored node: index line + keys + refs."""
        kpl = self.spec.keys_per_line
        return kpl + 2 * self.cpu_tree.fanout

    def _pack_nodes(self, pool, nodes: np.ndarray) -> np.ndarray:
        """Device images of many pool nodes at once, one row per node.

        Bulk twin of the old per-node packing loop: the MAX catch-all
        pin, the index-line derivation and the ref cast all happen as
        whole-array operations.
        """
        kpl = self.spec.keys_per_line
        fanout = self.cpu_tree.fanout
        nodes = np.asarray(nodes, dtype=np.int64)
        n = len(nodes)
        out = np.empty((n, self.node_stride), dtype=np.uint64)
        if n == 0:
            return out
        # the fancy index already copies, so casting may reuse it
        keys = pool.keys[nodes].astype(np.uint64, copy=False)
        size = np.maximum(1, pool.size[nodes]).astype(np.int64)
        keys[np.arange(n), size - 1] = np.uint64(self.spec.max_value)
        out[:, :kpl] = keys.reshape(n, kpl, kpl)[:, :, -1]
        out[:, kpl: kpl + fanout] = keys
        out[:, kpl + fanout:] = pool.refs[nodes].astype(np.uint64)
        return out

    def _pack_node(self, pool, node: int) -> np.ndarray:
        """Device image of one inner node (with the MAX catch-all pin)."""
        return self._pack_nodes(pool, np.asarray([node]))[0]

    def pack_i_segment(self) -> np.ndarray:
        """The device image of the full I-segment, packed from the CPU
        tree (the source of truth).  Does not touch the GPU."""
        tree = self.cpu_tree
        upper_n = tree.upper.count
        last_n = tree.last.count
        stride = self.node_stride
        flat = np.empty((upper_n + last_n) * stride, dtype=np.uint64)
        flat[: upper_n * stride] = self._pack_nodes(
            tree.upper, np.arange(upper_n)
        ).reshape(-1)
        flat[upper_n * stride:] = self._pack_nodes(
            tree.last, np.arange(last_n)
        ).reshape(-1)
        return flat

    def pack_i_segment_scalar(self) -> np.ndarray:
        """Reference per-node packing loop.

        Kept as the equivalence/speedup baseline for the vectorised
        :meth:`pack_i_segment` (asserted in tests and timed by the
        wall-clock benchmark); not used on any hot path.
        """
        tree = self.cpu_tree
        kpl = self.spec.keys_per_line
        fanout = self.cpu_tree.fanout
        upper_n = tree.upper.count
        last_n = tree.last.count
        stride = self.node_stride
        flat = np.zeros((upper_n + last_n) * stride, dtype=np.uint64)

        def pack_one(pool, node):
            keys = pool.keys[node].copy()
            size = max(1, int(pool.size[node]))
            keys[size - 1] = self.spec.max_value
            index_line = keys.reshape(kpl, kpl)[:, -1]
            out = np.empty(stride, dtype=np.uint64)
            out[:kpl] = index_line.astype(np.uint64)
            out[kpl: kpl + fanout] = keys.astype(np.uint64)
            out[kpl + fanout:] = pool.refs[node].astype(np.uint64)
            return out

        for node in range(upper_n):
            flat[node * stride: (node + 1) * stride] = pack_one(tree.upper, node)
        for node in range(last_n):
            slot = upper_n + node
            flat[slot * stride: (slot + 1) * stride] = pack_one(tree.last, node)
        return flat

    def mirror_i_segment(self) -> float:
        """Rebuild + upload the full I-segment mirror; returns time ns.

        On an injected :class:`~repro.faults.SyncInterrupted` or
        transfer fault the old mirror stays in device memory and
        ``mirror_stale`` remains True — the hazard the resilience layer
        (:mod:`repro.core.resilience`) exists to repair.
        """
        with self.obs.span("hbtree.mirror_i_segment"):
            self.mirror_stale = True
            if self.injector is not None:
                self.injector.on_sync()
            flat = self.pack_i_segment()
            self.last_base = self.cpu_tree.upper.count
            t = self.link.to_device(self.device.memory, "iseg_regular", flat)
            self.iseg_buffer = self.device.memory.get("iseg_regular")
            self.mirror_stale = False
        self.obs.count("live.hbtree.mirror_uploads")
        return t

    def sync_node(self, level: int, node: int) -> float:
        """Push one modified inner node to the GPU mirror (section 5.6
        synchronized update).  Returns the transfer time in ns.

        Falls back to a full mirror rebuild when the pools outgrew the
        mirrored capacity (new nodes from splits).
        """
        tree = self.cpu_tree
        stride = self.node_stride
        slot = node + (self.last_base if level == 0 else 0)
        if (slot + 1) * stride > self.iseg_buffer.array.size or (
            level > 0 and node >= self.last_base
        ):
            return self.mirror_i_segment()
        pool = tree.last if level == 0 else tree.upper
        packed = self._pack_node(pool, node)
        was_stale = self.mirror_stale
        self.mirror_stale = True
        t = self.link.update_device(
            self.device.memory, "iseg_regular", packed, offset_elems=slot * stride
        )
        self.mirror_stale = was_stale
        return t

    def sync_nodes(self, dirty: Sequence) -> MirrorSyncStats:
        """Push a batch of modified inner nodes in ranged transfers.

        ``dirty`` is an iterable of ``(level, node)`` pairs (level 0 =
        last-level pool).  Duplicates collapse, the dirty mirror slots
        are sorted, and *adjacent* slots coalesce into one ranged
        ``update_device`` transfer each — so a batch update that soiled
        N nodes costs one PCIe round-trip per contiguous dirty range
        instead of N single-node round-trips (each paying ``T_init``).

        Falls back to a full mirror rebuild when any dirty node lies
        outside the mirrored capacity (splits grew the pools).  On an
        injected transfer fault the exception propagates with
        ``mirror_stale`` left True, exactly like :meth:`sync_node`.
        """
        tree = self.cpu_tree
        stride = self.node_stride
        pairs = sorted({(int(level), int(node)) for level, node in dirty})
        if not pairs:
            return MirrorSyncStats(nodes=0, transfers=0, time_ns=0.0)
        slots = np.asarray(
            [n + (self.last_base if lvl == 0 else 0) for lvl, n in pairs],
            dtype=np.int64,
        )
        out_of_mirror = (
            int(slots.max() + 1) * stride > self.iseg_buffer.array.size
            or any(lvl > 0 and n >= self.last_base for lvl, n in pairs)
        )
        if out_of_mirror:
            t = self.mirror_i_segment()
            return MirrorSyncStats(
                nodes=len(pairs), transfers=1, time_ns=t, rebuilt=True
            )
        order = np.argsort(slots)
        slots = slots[order]
        last_nodes = [n for lvl, n in pairs if lvl == 0]
        upper_nodes = [n for lvl, n in pairs if lvl > 0]
        rows = np.empty((len(pairs), stride), dtype=np.uint64)
        packed_slot = np.empty(len(pairs), dtype=np.int64)
        rows[: len(upper_nodes)] = self._pack_nodes(
            tree.upper, np.asarray(upper_nodes, dtype=np.int64)
        )
        packed_slot[: len(upper_nodes)] = [n for n in upper_nodes]
        rows[len(upper_nodes):] = self._pack_nodes(
            tree.last, np.asarray(last_nodes, dtype=np.int64)
        )
        packed_slot[len(upper_nodes):] = [
            n + self.last_base for n in last_nodes
        ]
        # reorder the packed rows into ascending-slot order
        rows = rows[np.argsort(packed_slot)]
        # contiguous dirty ranges -> one transfer each
        breaks = np.flatnonzero(np.diff(slots) > 1) + 1
        starts = np.r_[0, breaks]
        ends = np.r_[breaks, len(slots)]
        stats = MirrorSyncStats(nodes=len(pairs), transfers=0, time_ns=0.0)
        was_stale = self.mirror_stale
        self.mirror_stale = True
        with self.obs.span("hbtree.sync_nodes", nodes=len(pairs),
                           ranges=len(starts)):
            for s, e in zip(starts.tolist(), ends.tolist()):
                stats.time_ns += self.link.update_device(
                    self.device.memory,
                    "iseg_regular",
                    rows[s:e].reshape(-1),
                    offset_elems=int(slots[s]) * stride,
                )
                stats.transfers += 1
        self.mirror_stale = was_stale
        self.obs.count("live.hbtree.synced_nodes", stats.nodes)
        self.obs.count("live.hbtree.sync_transfers", stats.transfers)
        return stats

    @property
    def gpu_levels(self) -> int:
        # the 3-step node search walks three lines per inner level
        return 3 * self.cpu_tree.height

    def _stored_keys(self) -> np.ndarray:
        return self.cpu_tree.stored_keys()

    def _leaves_of(self, codes: np.ndarray) -> np.ndarray:
        # a code packs (big-leaf node, line); the node is the leaf
        return codes // self.cpu_tree.fanout

    # ------------------------------------------------------------------
    # search

    def gpu_descend(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent: ``(codes, transactions)``.

        No launch screening, no counter mutation — safe to call from
        multiple threads concurrently (the mirror is read-only during
        search).  Callers that want serial semantics should pair it
        with :meth:`gpu_begin_bucket` and merge the transactions into
        the device counters, which is what :meth:`gpu_search_bucket`
        and :class:`repro.core.overlap.OverlappedEngine` both do.

        ``kernel="frontier"`` keeps the same 3-step descent (the
        regular layout has no level-contiguous I-segment to sweep) but
        accounts transactions with block-wide level-by-level dedup —
        one line per distinct (node, line) across the whole bucket —
        instead of per-warp windows.  Codes are identical either way.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        if len(q) == 0:
            return np.zeros(0, dtype=np.int64), 0
        return regular_search_vectorized(
            self.iseg_buffer.array,
            self.node_stride,
            self.spec.keys_per_line,
            self.cpu_tree.fanout,
            self.cpu_tree.height,
            self.cpu_tree.root,
            self.last_base,
            q,
            teams_per_warp=self.teams_per_warp,
            frontier_block=len(q) if kern == FRONTIER else None,
        )

    def gpu_search_bucket_literal(self, queries: np.ndarray) -> np.ndarray:
        """Stage 2 on the literal SIMT interpreter (slow; for tests)."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        codes, _stats = launch_regular_search(
            self.device,
            self.iseg_buffer,
            self.node_stride,
            self.spec.keys_per_line,
            self.cpu_tree.fanout,
            self.cpu_tree.height,
            self.cpu_tree.root,
            self.last_base,
            q,
        )
        return codes

    def cpu_finish_bucket(
        self, queries: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Stage 4: search the addressed big-leaf cache lines."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if len(q) == 0:
            return np.zeros(0, dtype=self.spec.dtype)
        tree = self.cpu_tree
        p = self.spec.leaf_pairs_per_line
        # one flat index per query: the first pair of its leaf line; a
        # line is non-decreasing (gaps copy their right neighbour,
        # padding is the maximum), so a branchless lower bound over its
        # ``p`` keys lands on the pair a match must occupy
        codes = np.asarray(codes, dtype=np.int64)
        pos = (codes // tree.fanout) * tree.leaves.capacity_pairs
        pos += (codes % tree.fanout) * p
        keys = tree.leaves.keys.reshape(-1)
        step = p >> 1
        while step:
            pos += (keys[pos + (step - 1)] < q) * step
            step >>= 1
        found = keys[pos] == q
        return np.where(found, tree.leaves.values.reshape(-1)[pos],
                        self.spec.dtype(self.spec.max_value))

    # ------------------------------------------------------------------
    # profiling / cost model

    def profile_leaf_stage(self, sample_queries: np.ndarray) -> CpuQueryProfile:
        q = np.asarray(sample_queries, dtype=self.spec.dtype)
        codes, _txns = self.gpu_descend(q)
        tree = self.cpu_tree
        node = (codes // tree.fanout).astype(np.int64)
        line = (codes % tree.fanout).astype(np.int64)
        self.mem.reset_counters()
        tree._ensure_segments()
        tree._touch_leaf_lines(node, line)
        counters = self.mem.counters
        counters.queries = len(q)
        return CpuQueryProfile.from_counters(counters, node_searches_per_query=1.0)

    def level_profiles(
        self, sample: np.ndarray
    ) -> Tuple[List[CpuQueryProfile], CpuQueryProfile]:
        """Per-inner-level CPU profiles (root first) and the leaf
        profile, from one instrumented descent of ``sample``: each
        level runs the 3-line node search, the leaf stage probes the
        addressed big-leaf line."""
        tree = self.cpu_tree
        mem = self.mem
        q = np.asarray(sample, dtype=self.spec.dtype)
        tree._ensure_segments()
        kpl = self.spec.keys_per_line
        mem.reset_counters()
        profiles: List[CpuQueryProfile] = []
        node = np.full(len(q), tree.root, dtype=np.int64)
        for level in range(tree.height - 1, -1, -1):
            pool = tree.last if level == 0 else tree.upper
            keys = pool.keys[node]
            slot = np.sum(keys < q[:, None], axis=1)
            slot = np.minimum(slot, np.maximum(pool.size[node] - 1, 0))
            before = mem.counters.cache_misses
            for n, g in zip(node.tolist(), (slot // kpl).tolist()):
                tree._touch_inner(level, int(n), int(g))
            misses = (mem.counters.cache_misses - before) / len(q)
            profiles.append(CpuQueryProfile(
                lines=3.0, misses=misses, tlb_small=0.0, tlb_huge=0.0,
                node_searches=2.0,
            ))
            if level == 0:
                before = mem.counters.cache_misses
                for n, ln in zip(node.tolist(), slot.tolist()):
                    tree._touch_leaf_line(int(n), int(ln))
                leaf_misses = (mem.counters.cache_misses - before) / len(q)
            else:
                node = pool.refs[node, slot].astype(np.int64)
        leaf = CpuQueryProfile(
            lines=1.0, misses=leaf_misses, tlb_small=0.5, tlb_huge=0.0,
            node_searches=1.0,
        )
        return profiles, leaf
