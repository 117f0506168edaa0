"""The implicit HB+-tree (paper sections 5.1-5.4, 5.6).

Layout (Fig 4): the I-segment (all inner nodes, breadth-first) is
*mirrored* in CPU and GPU memory; the L-segment (leaves) resides in CPU
memory only.  Inner-node fanout is reduced to ``keys_per_line`` (8 for
64-bit keys) so one GPU thread per key searches a node without warp
divergence, with catch-all keys pinned to the maximum value.

A point-lookup bucket flows:

1. queries transfer to GPU memory            (T1)
2. the GPU kernel walks all inner levels      (T2)
3. leaf indexes transfer back                 (T3)
4. the CPU searches the target leaves         (T4)

Updates rebuild the whole tree and re-upload the I-segment
(section 5.6; Fig 15 measures the phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hybrid import GpuSearchResult, HybridTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.gpusim.kernels.frontier_search import (
    FRONTIER,
    frontier_search_from_counted,
    frontier_search_vectorized,
    launch_frontier_search,
)
from repro.gpusim.kernels.implicit_search import (
    implicit_search_from_counted,
    implicit_search_vectorized,
    launch_implicit_search,
)
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import CpuQueryProfile


@dataclass
class RebuildTimes:
    """Phase times of one implicit-tree rebuild (Fig 15)."""

    l_segment_ns: float
    i_segment_ns: float
    transfer_ns: float

    @property
    def total_ns(self) -> float:
        return self.l_segment_ns + self.i_segment_ns + self.transfer_ns

    @property
    def transfer_fraction(self) -> float:
        rebuild = self.l_segment_ns + self.i_segment_ns
        return self.transfer_ns / rebuild if rebuild else 0.0


#: effective passes over the data a rebuild makes (merge of the update
#: batch + leaf packing + inner-level stacking); drives Fig 15's
#: rebuild-vs-transfer proportions
REBUILD_PASSES = 10.0

#: passes for the linear-merge rebuild path: the contents are already
#: sorted, so no re-sort is needed (merge + pack + stack)
MERGE_PASSES = 4.0


class ImplicitHBPlusTree(HybridTree):
    """Hybrid implicit B+-tree over a machine's CPU + GPU."""

    name = "implicit-hb+tree"
    COST_SAMPLE_SEED = 3

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        machine: MachineConfig,
        key_bits: int = 64,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_SMALL,
        algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.HIERARCHICAL_SIMD,
    ):
        super().__init__(machine, key_bits, mem)
        self.cpu_tree = ImplicitCpuBPlusTree(
            keys,
            values,
            key_bits=key_bits,
            fanout=self.spec.implicit_hybrid_fanout,
            mem=self.mem,
            page_config=page_config,
            algorithm=algorithm,
            segment_prefix="hb_implicit",
        )
        self.last_rebuild: Optional[RebuildTimes] = None
        self._mirror_i_segment()

    # ------------------------------------------------------------------
    # GPU mirror

    def _mirror_i_segment(self) -> float:
        """(Re)build + upload the flat breadth-first I-segment mirror.

        Returns the simulated transfer time in ns.
        """
        fanout = self.cpu_tree.fanout
        parts: List[np.ndarray] = []
        offsets: List[int] = []
        sizes: List[int] = []
        elem = 0
        for level in self.cpu_tree.inner_levels:
            flat = level.reshape(-1)
            offsets.append(elem)
            sizes.append(flat.size)
            parts.append(flat)
            elem += flat.size
        if parts:
            flat_iseg = np.concatenate(parts)
        else:  # single-leaf tree: a trivial one-node I-segment
            flat_iseg = np.full(fanout, self.spec.max_value, dtype=self.spec.dtype)
            offsets, sizes = [0], [fanout]
        self.level_offsets = offsets
        self.level_sizes = sizes
        self.gpu_depth = len(self.cpu_tree.inner_levels)
        t = self.link.to_device(self.device.memory, "iseg", flat_iseg)
        self.iseg_buffer = self.device.memory.get("iseg")
        return t

    @property
    def l_segment_bytes(self) -> int:
        return self.cpu_tree.l_segment_bytes

    @property
    def gpu_levels(self) -> int:
        return self.gpu_depth

    def _stored_keys(self) -> np.ndarray:
        stored = self.cpu_tree.leaf_keys.reshape(-1)
        return stored[stored != self.spec.max_value]

    def _leaves_of(self, codes: np.ndarray) -> np.ndarray:
        # codes are leaf indices; clamp like :meth:`cpu_finish_bucket`
        return np.minimum(codes, self.cpu_tree.num_leaves - 1)

    # ------------------------------------------------------------------
    # search

    def gpu_descend(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent: ``(codes, transactions)``, where a
        code is a leaf index.

        No launch counting, no counter mutation — thread-safe over the
        read-only mirror.  ``gpu_depth == 0`` yields all-zero leaf
        indices, matching :meth:`gpu_search_bucket`.  ``kernel`` picks
        the per-query Snippet-3 descent or the level-wise frontier
        descent — identical leaf indices either way, different
        transaction accounting.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        if len(q) == 0 or self.gpu_depth == 0:
            return np.zeros(len(q), dtype=np.int64), 0
        if kern == FRONTIER:
            return frontier_search_vectorized(
                self.iseg_buffer.array,
                self.level_offsets,
                self.level_sizes,
                self.gpu_depth,
                self.cpu_tree.fanout,
                q,
            )
        return implicit_search_vectorized(
            self.iseg_buffer.array,
            self.level_offsets,
            self.level_sizes,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
            teams_per_warp=self.teams_per_warp,
        )

    # -- load-balanced (D, R) split execution --------------------------

    #: the implicit layout supports resuming a GPU descent mid-tree,
    #: which is what the adaptive (D, R) split engines require
    supports_split_descent = True

    def cpu_descend_top(
        self, queries: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """Walk per-query ``levels`` top inner levels on the CPU.

        Pure (no counters, thread-safe); returns the node positions the
        GPU resumes from, each query stepping exactly as a full
        :meth:`ImplicitCpuBPlusTree.lookup_batch` descent would.
        """
        tree = self.cpu_tree
        q = np.asarray(queries, dtype=self.spec.dtype)
        node = np.zeros(len(q), dtype=np.int64)
        for level in range(tree.height):
            active = levels > level
            if not np.any(active):
                break
            node[active] = tree.descend_level(level, node[active], q[active])
        return node

    def gpu_descend_from(
        self,
        queries: np.ndarray,
        start_levels: np.ndarray,
        start_nodes: np.ndarray,
        kernel: Optional[str] = None,
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent resumed from per-query (level, node).

        The split-space twin of :meth:`gpu_descend`: no launch
        counting, no counter mutation, safe from worker threads.  With
        all ``start_levels`` at 0 both outputs are identical to
        :meth:`gpu_descend` (the unbalanced corner of the split space).
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        start = np.asarray(start_levels, dtype=np.int64)
        nodes = np.asarray(start_nodes, dtype=np.int64)
        if len(q) == 0 or self.gpu_depth == 0 or not np.any(
            start < self.gpu_depth
        ):
            return nodes.copy(), 0
        if kern == FRONTIER:
            return frontier_search_from_counted(
                self.iseg_buffer.array,
                self.level_offsets,
                self.level_sizes,
                self.gpu_depth,
                self.cpu_tree.fanout,
                q,
                start_levels=start,
                start_nodes=nodes,
            )
        return implicit_search_from_counted(
            self.iseg_buffer.array,
            self.level_offsets,
            self.level_sizes,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
            start_levels=start,
            start_nodes=nodes,
            teams_per_warp=self.teams_per_warp,
        )

    def gpu_search_bucket_from(
        self,
        queries: np.ndarray,
        start_levels: np.ndarray,
        start_nodes: np.ndarray,
        kernel: Optional[str] = None,
    ) -> GpuSearchResult:
        """Stateful split-bucket GPU stage: screen, descend, account.

        An all-CPU bucket (every query already descended to the leaves
        by :meth:`cpu_descend_top`) launches no kernel and charges no
        transactions — the execution twin of the load balancer's
        ``sample_times`` fix for ``depth == h``.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        start = np.asarray(start_levels, dtype=np.int64)
        gpu_active = int(np.count_nonzero(start < self.gpu_depth))
        if not self.gpu_begin_bucket(gpu_active):
            return GpuSearchResult(
                codes=np.asarray(start_nodes, dtype=np.int64).copy(),
                transactions=0,
            )
        return self._charged(
            *self.gpu_descend_from(q, start, start_nodes, kernel=kern)
        )

    def gpu_search_bucket_literal(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> np.ndarray:
        """Stage 2 on the literal SIMT interpreter (slow; for tests)."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if self._resolve_kernel(kernel) == FRONTIER:
            leaf, _stats = launch_frontier_search(
                self.device,
                self.iseg_buffer,
                self.level_offsets,
                self.gpu_depth,
                self.cpu_tree.fanout,
                q,
                level_sizes=self.level_sizes,
            )
            return leaf
        leaf, _stats = launch_implicit_search(
            self.device,
            self.iseg_buffer,
            self.level_offsets,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
        )
        return leaf

    def cpu_finish_bucket(
        self, queries: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Stage 4: search the target leaves on the CPU."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if len(q) == 0:
            return np.zeros(0, dtype=self.spec.dtype)
        leaf = self._leaves_of(codes)
        rows = self.cpu_tree.leaf_keys[leaf]
        pos = np.sum(rows < q[:, None], axis=1)
        pos_c = np.minimum(pos, rows.shape[1] - 1)
        found = rows[np.arange(len(q)), pos_c] == q
        out = np.full(len(q), self.spec.max_value, dtype=self.spec.dtype)
        out[found] = self.cpu_tree.leaf_values[leaf[found], pos_c[found]]
        return out

    # ------------------------------------------------------------------
    # instrumented profiling (feeds the cost model)

    def level_profiles(
        self, sample: np.ndarray
    ) -> Tuple[List[CpuQueryProfile], CpuQueryProfile]:
        """Per-inner-level CPU profiles (root first) and the leaf
        profile, from one instrumented descent of ``sample``: each
        level touches one I-segment line per query, the leaf stage one
        L-segment line."""
        tree = self.cpu_tree
        mem = self.mem
        q = np.asarray(sample, dtype=self.spec.dtype)
        n = len(q)
        mem.reset_counters()
        c = mem.counters
        profiles: List[CpuQueryProfile] = []
        node = np.zeros(n, dtype=np.int64)
        for level in range(tree.height):
            before = c.cache_misses
            mem.touch_lines(tree.i_segment,
                            tree._level_line_offset(level) + node)
            profiles.append(CpuQueryProfile(
                lines=1.0, misses=(c.cache_misses - before) / n,
                tlb_small=0.0, tlb_huge=0.0, node_searches=1.0,
            ))
            node = tree.descend_level(level, node, q)
        before = (c.cache_misses, c.tlb_misses_small, c.tlb_misses_huge)
        mem.touch_lines(tree.l_segment, node)
        leaf = CpuQueryProfile(
            lines=1.0,
            misses=(c.cache_misses - before[0]) / n,
            tlb_small=(c.tlb_misses_small - before[1]) / n,
            tlb_huge=(c.tlb_misses_huge - before[2]) / n,
            node_searches=1.0,
        )
        return profiles, leaf

    def profile_leaf_stage(self, sample_queries: np.ndarray) -> CpuQueryProfile:
        """Measure the CPU leaf stage's per-query memory behaviour."""
        q = np.asarray(sample_queries, dtype=self.spec.dtype)
        leaf = self._leaves_of(self.gpu_descend(q)[0])
        self.mem.reset_counters()
        self.mem.touch_lines(self.cpu_tree.l_segment, leaf)
        counters = self.mem.counters
        counters.queries = len(q)
        return CpuQueryProfile.from_counters(counters, node_searches_per_query=1.0)

    # ------------------------------------------------------------------
    # updates (rebuild, section 5.6 / Fig 15)

    def rebuild(self, keys: Sequence[int], values: Sequence[int]) -> RebuildTimes:
        """Rebuild both segments in main memory, then re-upload the
        I-segment to GPU memory."""
        self.cpu_tree.rebuild(keys, values)
        transfer_ns = self._mirror_i_segment()
        bw = self.machine.cpu.mem_bandwidth_gbs
        l_ns = self.l_segment_bytes * REBUILD_PASSES / bw
        i_ns = self.i_segment_bytes * REBUILD_PASSES / bw
        times = RebuildTimes(
            l_segment_ns=l_ns, i_segment_ns=i_ns, transfer_ns=transfer_ns
        )
        self.last_rebuild = times
        return times

    def merge_rebuild(
        self,
        upsert_keys: Sequence[int] = (),
        upsert_values: Sequence[int] = (),
        deletes: Sequence[int] = (),
    ) -> RebuildTimes:
        """Batch update by linear merge instead of a full re-sort.

        Functionally identical to :meth:`rebuild` over the merged
        contents, but cheaper: the existing contents are already sorted
        (``MERGE_PASSES`` vs ``REBUILD_PASSES``).
        """
        self.cpu_tree.merge_update(upsert_keys, upsert_values, deletes)
        transfer_ns = self._mirror_i_segment()
        bw = self.machine.cpu.mem_bandwidth_gbs
        times = RebuildTimes(
            l_segment_ns=self.l_segment_bytes * MERGE_PASSES / bw,
            i_segment_ns=self.i_segment_bytes * MERGE_PASSES / bw,
            transfer_ns=transfer_ns,
        )
        self.last_rebuild = times
        return times
