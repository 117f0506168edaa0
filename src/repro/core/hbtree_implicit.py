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

The mirror and the GPU descent read only the implicit level layout, so
they live in :class:`ImplicitLayoutTree`, which the CSS-tree adapter
(:class:`repro.core.framework.CssTreeAdapter`) derives as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.hybrid import (
    GpuSearchResult,
    HybridTree,
    implicit_walk,
    pack_levels,
)
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.gpusim.kernels.implicit_search import implicit_descend
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.platform.configs import MachineConfig


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


class ImplicitLayoutTree(HybridTree):
    """The hybrid flow over an implicit CPU layout
    (:class:`~repro.cpu.implicit_levels.ImplicitLevels`).

    The layout's levels mirror to the GPU as one flat breadth-first
    image (:func:`pack_levels`), and a GPU descent can resume at any
    (level, node) the CPU walked to.  A subclass sets ``cpu_tree``,
    calls :meth:`mirror_i_segment`, and supplies its leaf stage
    (``cpu_finish_bucket``) and instrumented walk (``_profile_walk``).
    """

    #: the implicit layout supports resuming a GPU descent mid-tree,
    #: which is what the adaptive (D, R) split engines require
    supports_split_descent = True

    # ------------------------------------------------------------------
    # GPU mirror

    def pack_i_segment(self) -> np.ndarray:
        """The flat breadth-first I-segment image (:func:`pack_levels`)."""
        tree = self.cpu_tree
        return pack_levels(tree.levels, tree.fanout, self.spec)[0]

    def mirror_layout(self) -> Dict[str, int]:
        return {"gpu_depth": int(self.gpu_depth)}

    def mirror_i_segment(self) -> float:
        """(Re)build + upload the flat breadth-first I-segment mirror.

        Returns the simulated transfer time in ns.
        """
        tree = self.cpu_tree
        image, self.level_offsets, self.level_sizes = pack_levels(
            tree.levels, tree.fanout, self.spec
        )
        self.gpu_depth = tree.height
        t = self.link.to_device(self.device.memory, "iseg", image)
        self.iseg_buffer = self.device.memory.get("iseg")
        return t

    @property
    def gpu_levels(self) -> int:
        return self.gpu_depth

    def _leaves_of(self, codes: np.ndarray) -> np.ndarray:
        # a code is a position below the last level: clamp it to one
        return np.minimum(codes, self.cpu_tree.bottom_size - 1)

    # ------------------------------------------------------------------
    # search

    def gpu_descend(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent: ``(codes, transactions)``, where a
        code is a position below the last level (a leaf or a run).

        No launch counting, no counter mutation — thread-safe over the
        read-only mirror.  The full descent is the (D=0, R=0) corner of
        :meth:`gpu_descend_from`: every query starts at the root.
        ``gpu_depth == 0`` yields all-zero codes, matching
        :meth:`gpu_search_bucket`.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        zeros = np.zeros(len(q), dtype=np.int64)
        return self.gpu_descend_from(q, zeros, zeros, kernel=kernel)

    # -- load-balanced (D, R) split execution --------------------------

    def cpu_descend_top(
        self, queries: np.ndarray, levels: np.ndarray
    ) -> np.ndarray:
        """Walk per-query ``levels`` top inner levels on the CPU.

        Pure (no counters, thread-safe); returns the node positions the
        GPU resumes from, each query stepping exactly as a full CPU
        descent would (:meth:`ImplicitLevels.descend_top`).
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        return self.cpu_tree.descend_top(q, levels)

    def gpu_descend_from(
        self,
        queries: np.ndarray,
        start_levels: np.ndarray,
        start_nodes: np.ndarray,
        kernel: Optional[str] = None,
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent resumed from per-query (level, node).

        No launch counting, no counter mutation.  Levels below a
        query's start level are the CPU's and charge nothing.
        ``kernel`` picks the per-query Snippet-3 schedule or the
        level-wise frontier schedule — identical codes, only the
        coalescing window (:meth:`coalescing_window`) moves.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        return implicit_descend(
            self.iseg_buffer.array,
            self.level_offsets,
            self.level_sizes,
            self.gpu_depth,
            self.cpu_tree.fanout,
            q,
            start_levels,
            start_nodes,
            self.coalescing_window(kernel, len(q)),
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


class ImplicitHBPlusTree(ImplicitLayoutTree):
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
        self.mirror_i_segment()

    @property
    def l_segment_bytes(self) -> int:
        return self.cpu_tree.l_segment_bytes

    # ------------------------------------------------------------------
    # leaf stage

    def cpu_finish_bucket(
        self, queries: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Stage 4: search the target leaves on the CPU."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if len(q) == 0:
            return np.zeros(0, dtype=self.spec.dtype)
        return self.cpu_tree.probe_leaves(self._leaves_of(codes), q)

    # ------------------------------------------------------------------
    # instrumented profiling (feeds the cost model)

    def _profile_walk(self, queries: np.ndarray):
        return implicit_walk(self.cpu_tree, queries)

    def _touch_leaves(self, codes: np.ndarray) -> None:
        self.mem.touch_lines(self.cpu_tree.l_segment, self._leaves_of(codes))

    # ------------------------------------------------------------------
    # updates (rebuild, section 5.6 / Fig 15)

    def rebuild(self, keys: Sequence[int], values: Sequence[int]) -> RebuildTimes:
        """Rebuild both segments in main memory, then re-upload the
        I-segment to GPU memory."""
        self.cpu_tree.rebuild(keys, values)
        transfer_ns = self.mirror_i_segment()
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
        transfer_ns = self.mirror_i_segment()
        bw = self.machine.cpu.mem_bandwidth_gbs
        times = RebuildTimes(
            l_segment_ns=self.l_segment_bytes * MERGE_PASSES / bw,
            i_segment_ns=self.i_segment_bytes * MERGE_PASSES / bw,
            transfer_ns=transfer_ns,
        )
        self.last_rebuild = times
        return times

    def write_batch(self, keys: Sequence[int], values: Sequence[int],
                    deletes: Sequence[int] = ()) -> RebuildTimes:
        """The engine's one batch write: :meth:`merge_rebuild`."""
        return self.merge_rebuild(keys, values, deletes)
