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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hybrid import HybridTree, regular_walk
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.descent import probe
from repro.faults import FaultError
from repro.gpusim.kernels.regular_search import regular_search_vectorized
from repro.gpusim.memory import grow_array
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.obs.stats import Stats
from repro.platform.configs import MachineConfig

#: per-push overhead on the synchronizing thread's open copy stream
#: (request bookkeeping; the stream amortizes the big T_init)
SYNC_NODE_OVERHEAD_NS = 40.0


@dataclass
class MirrorSyncStats(Stats):
    """Outcome of one dirty-node mirror sync."""

    #: inner nodes written to the device (every node on a rebuild)
    nodes: int
    transfers: int
    #: link time of the transfers (``T_init`` each)
    time_ns: float
    #: True when the sync fell back to a full mirror rebuild
    rebuilt: bool = False
    #: modeled cost of the ranged pushes on the synchronizing thread's
    #: open copy stream: bandwidth per node plus
    #: :data:`SYNC_NODE_OVERHEAD_NS` per push, one ``T_init`` excluded
    #: (0 on a rebuild)
    stream_ns: float = 0.0
    #: injected faults the sync absorbed with its full rebuild
    faults: int = 0


@dataclass(frozen=True)
class MirrorMark:
    """The inner pools as a write batch found them
    (:meth:`HBPlusTree.mirror_mark`)."""

    upper_count: int
    last_count: int
    height: int
    #: per-node version stamps of each pool's allocated nodes
    upper_versions: np.ndarray
    last_versions: np.ndarray
    #: the mirror already lagged the tree: an interrupted sync left it
    #: stale, or inner nodes were written since the last sync
    behind: bool


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
        #: (write stamp, image) of the expected device image: the last
        #: full pack, patched by every :meth:`sync_nodes`; see
        #: :meth:`current_i_segment_image`
        self._packed: Optional[Tuple[tuple, np.ndarray]] = None
        #: write stamp at which the device mirror last equalled the
        #: expected image (a full upload or a complete sync)
        self._mirror_stamp: Optional[tuple] = None
        #: the write ledger: arrays of the mirror rows that may differ
        #: from the expected image, or None when only a whole-image
        #: compare can tell (see :meth:`verify_mirror`)
        self._ledger: Optional[List[np.ndarray]] = None
        #: total length of the ledger's arrays
        self._ledger_size = 0
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

    def push_ns(self, nodes: int = 1) -> float:
        """Link bandwidth time of pushing ``nodes`` mirrored nodes,
        without ``T_init`` or per-push overhead.  Takes the node count,
        rather than being multiplied by it, so a sum is one rounding."""
        return nodes * self.node_stride * 8 / self.machine.pcie.bandwidth_gbs

    def mirror_layout(self) -> Dict[str, int]:
        return {
            "last_base": int(self.last_base),
            "node_stride": int(self.node_stride),
        }

    def _pack_nodes(self, pool, nodes: np.ndarray) -> np.ndarray:
        """Device images of many pool nodes at once, one row per node.

        Bulk form of a per-node packing loop (the ``wallclock`` gate's
        ``pack_i_segment_scalar``): the MAX catch-all pin, the
        index-line derivation and the ref cast all happen as
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

    def _write_stamp(self) -> tuple:
        tree = self.cpu_tree
        return (tree.upper, tree.last, tree.upper.writes, tree.last.writes)

    def current_i_segment_image(self) -> np.ndarray:
        """:meth:`pack_i_segment`, reusing the image the last full
        :meth:`mirror_i_segment` packed, or the last :meth:`sync_nodes`
        patched, when no inner node was written since.  Callers must
        not modify the returned array; a later sync may patch it in
        place."""
        stamp = self._write_stamp()
        if self._packed is None or self._packed[0] != stamp:
            self._packed = (stamp, self.pack_i_segment())
            self._ledger = None
        return self._packed[1]

    def mirror_i_segment(self) -> float:
        """Rebuild + upload the full I-segment mirror; returns time ns.

        On an injected :class:`~repro.faults.SyncInterrupted` or
        transfer fault the old mirror stays in device memory and
        ``mirror_stale`` remains True — the hazard the resilience layer
        (:mod:`repro.core.resilience`) exists to repair.
        """
        with self.obs.span("hbtree.mirror_i_segment"):
            self.mirror_stale = True
            self._ledger = None
            if self.injector is not None:
                self.injector.on_sync()
            flat = self.pack_i_segment()
            # the upload copies, so the packed image can be kept
            self._packed = (self._write_stamp(), flat)
            self.last_base = self.cpu_tree.upper.count
            t = self.link.to_device(self.device.memory, "iseg_regular", flat)
            self.iseg_buffer = self.device.memory.get("iseg_regular")
            self.mirror_stale = False
            self._mirror_stamp = self._packed[0]
            self._reset_ledger(np.empty(0, dtype=np.int64))
        self.obs.count("live.hbtree.mirror_uploads")
        return t

    def mirror_mark(self) -> MirrorMark:
        """Record the inner pools before a write batch; hand the mark
        to :meth:`sync_nodes` after it."""
        tree = self.cpu_tree
        upper, last = tree.upper, tree.last
        return MirrorMark(
            upper_count=upper.count,
            last_count=last.count,
            height=tree.height,
            upper_versions=upper.version[: upper.count].copy(),
            last_versions=last.version[: last.count].copy(),
            behind=self.mirror_stale
            or self._mirror_stamp != self._write_stamp(),
        )

    def sync_nodes(self, mark: MirrorMark) -> MirrorSyncStats:
        """Push every inner node written since ``mark`` to the GPU
        mirror (section 5.6 synchronized update).

        The dirty set is exact: the nodes whose version stamp moved
        (every inner write ends in ``refresh_index`` or ``allocate``,
        which bump it on an existing node) plus the last-level nodes
        appended since the mark.  Adjacent dirty mirror slots coalesce
        into one ranged transfer each.  Appended nodes first grow the
        device buffer and the expected image at their tail, a
        device-side allocation with no PCIe bytes; the image layout
        stays :meth:`pack_i_segment`'s ``[upper | last]``.  The
        expected image is patched with the pushed rows and re-stamped,
        so :meth:`current_i_segment_image` does not re-pack.

        Falls back to one full :meth:`mirror_i_segment` when the mark
        was ``behind``, when the upper pool grew or the height changed
        (every last-level slot moves), or when the ranged pushes would
        cost more on the open copy stream than the full upload.  An
        injected fault in a push or in that rebuild leaves the mirror
        stale for an unknown prefix; one full rebuild absorbs it and
        counts it in ``faults``.  A fault in the absorbing rebuild
        propagates with ``mirror_stale`` left True.
        """
        try:
            return self._push_dirty(mark)
        except FaultError:
            stats = self._rebuild_sync()
            stats.faults = 1
            return stats

    def write_batch(self, keys: Sequence[int], values: Sequence[int],
                    deletes: Sequence[int] = ()):
        """The engine's one batch write: the synchronized update method
        (section 5.6).  Returns its :class:`~repro.core.update.UpdateStats`."""
        from repro.core.update import SyncUpdater  # update imports hbtree

        return SyncUpdater(self).apply(keys, values, deletes)

    def _push_dirty(self, mark: MirrorMark) -> MirrorSyncStats:
        tree = self.cpu_tree
        upper, last = tree.upper, tree.last
        stride = self.node_stride
        rows = upper.count + last.count
        if (mark.behind or upper.count != mark.upper_count
                or tree.height != mark.height):
            return self._rebuild_sync()
        dirty_upper = np.flatnonzero(
            upper.version[: mark.upper_count] != mark.upper_versions
        )
        dirty_last = np.concatenate([
            np.flatnonzero(
                last.version[: mark.last_count] != mark.last_versions
            ),
            np.arange(mark.last_count, last.count),
        ])
        slots = np.concatenate([dirty_upper, dirty_last + upper.count])
        if len(slots) == 0:
            return MirrorSyncStats(nodes=0, transfers=0, time_ns=0.0)
        # contiguous dirty slots -> one transfer each
        breaks = np.flatnonzero(np.diff(slots) > 1) + 1
        starts = slots[np.r_[0, breaks]]
        ends = slots[np.r_[breaks, len(slots)] - 1] + 1
        stream_ns = (
            self.push_ns(len(slots)) + len(starts) * SYNC_NODE_OVERHEAD_NS
        )
        if (stream_ns + self.machine.pcie.t_init_ns
                > self.link.time_ns(rows * stride * 8)):
            return self._rebuild_sync()
        image = self._packed[1]
        if image.size != rows * stride:
            image = grow_array(image, rows * stride)
            self.device.memory.resize("iseg_regular", rows * stride)
            self._ledger = None
        grid = image.reshape(rows, stride)
        grid[dirty_upper] = self._pack_nodes(upper, dirty_upper)
        grid[dirty_last + upper.count] = self._pack_nodes(last, dirty_last)
        # the pushes below enter the patched rows in the write ledger;
        # a faulted push drops it, and a push that never ran leaves
        # ``mirror_stale`` set
        self._packed = (self._write_stamp(), image)
        stats = MirrorSyncStats(nodes=len(slots), transfers=0, time_ns=0.0,
                                stream_ns=stream_ns)
        was_stale = self.mirror_stale
        self.mirror_stale = True
        with self.obs.span("hbtree.sync_nodes", nodes=len(slots),
                           ranges=len(starts)):
            for s, e in zip(starts.tolist(), ends.tolist()):
                stats.time_ns += self.push_mirror_rows(s, e)
                stats.transfers += 1
        self.mirror_stale = was_stale
        self._mirror_stamp = self._packed[0]
        self.obs.count("live.hbtree.synced_nodes", stats.nodes)
        self.obs.count("live.hbtree.sync_transfers", stats.transfers)
        return stats

    def _rebuild_sync(self) -> MirrorSyncStats:
        t = self.mirror_i_segment()
        tree = self.cpu_tree
        return MirrorSyncStats(nodes=tree.upper.count + tree.last.count,
                               transfers=1, time_ns=t, rebuilt=True)

    def push_mirror_rows(self, start: int, end: int,
                         image: Optional[np.ndarray] = None) -> float:
        """Upload rows (nodes) ``[start, end)`` of the expected image
        to the device mirror as one transfer; returns its time in ns.
        A repair pushes one row per transfer.  ``image`` replaces the
        expected rows with packed node images the caller built (the
        per-node synchronizing thread of a gate baseline); either way
        the rows enter the write ledger."""
        stride = self.node_stride
        if image is None:
            image = self.current_i_segment_image()[start * stride:
                                                   end * stride]
        self._note_rows(np.arange(start, end))
        try:
            return self.link.update_device(
                self.device.memory, "iseg_regular", image,
                offset_elems=start * stride,
            )
        except FaultError:
            self._ledger = None
            raise

    def _note_rows(self, rows: np.ndarray) -> None:
        """Enter mirror rows a writer touched, on either side, in the
        write ledger.  Past one entry per image row the ledger gives
        up for a whole-image compare, so it stays bounded while no
        verify runs."""
        if self._ledger is None:
            return
        self._ledger_size += len(rows)
        if self._ledger_size * self.node_stride > self.iseg_buffer.array.size:
            self._ledger = None
        else:
            self._ledger.append(rows)

    def _reset_ledger(self, rows: np.ndarray) -> None:
        self._ledger = [rows]
        self._ledger_size = len(rows)

    def verify_mirror(self) -> Optional[np.ndarray]:
        """Screen the device mirror through the injector's corruption
        site, then compare it with :meth:`current_i_segment_image`.

        Returns the mirror rows (nodes) that differ, empty when the
        mirror is healthy, or None when its size no longer matches the
        expected image's (inner nodes were added since the last sync),
        which only a full :meth:`mirror_i_segment` repairs.  The compare
        is element by element, so it detects every difference a CRC-32
        of the image would, including every single-bit flip the
        injector makes.

        It compares only the rows in the write ledger plus the row the
        screen flipped.  Every write to either side goes through a
        method of this tree that enters its rows: the full upload
        empties the ledger, a ranged push adds its rows (a sync pushes
        every row it patches in the expected image), and a compare
        leaves exactly the rows it found different.  A row outside the ledger is therefore equal
        on both sides, and the result is the row set a whole-image
        compare returns.  The ledger falls back to that compare after
        a re-pack of the expected image, a size change, a faulted push
        or while ``mirror_stale`` is set.
        """
        mirror = self.iseg_buffer.array
        flips: list = []
        if self.injector is not None:
            flips = self.injector.maybe_corrupt(mirror)
        expected = self.current_i_segment_image()
        if mirror.size != expected.size:
            return None
        stride = self.node_stride
        if self._ledger is None or self.mirror_stale:
            if np.array_equal(mirror, expected):
                diff = np.empty(0, dtype=np.int64)
            else:
                diff = np.unique(np.flatnonzero(mirror != expected) // stride)
        elif not self._ledger_size and not flips:
            return np.empty(0, dtype=np.int64)
        else:
            flipped = [elem // stride for elem, _bit in flips]
            rows = np.unique(np.concatenate(
                self._ledger + [np.asarray(flipped, dtype=np.int64)]))
            differs = (mirror.reshape(-1, stride)[rows]
                       != expected.reshape(-1, stride)[rows]).any(axis=1)
            diff = rows[differs]
        self._reset_ledger(diff)
        return diff

    @property
    def gpu_levels(self) -> int:
        # the 3-step node search walks three lines per inner level
        return 3 * self.cpu_tree.height

    def _leaves_of(self, codes: np.ndarray) -> np.ndarray:
        # a code packs (big-leaf node, line); the node is the leaf
        return codes // self.cpu_tree.fanout

    # ------------------------------------------------------------------
    # search

    def gpu_descend(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> "tuple[np.ndarray, int]":
        """Pure stage-2 descent: ``(codes, transactions)``.

        No launch screening, no counter mutation, so pure pricing can
        call it directly.  :meth:`gpu_search_bucket` pairs it with
        :meth:`gpu_begin_bucket` and books the transactions on the
        device counters.

        ``kernel`` moves only the coalescing window
        (:meth:`coalescing_window`); codes are identical either way.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        group = self.coalescing_window(kernel, len(q))
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
            group,
        )

    def cpu_finish_bucket(
        self, queries: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Stage 4: search the addressed big-leaf cache lines."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        if len(q) == 0:
            return np.zeros(0, dtype=self.spec.dtype)
        # a code names its leaf line, which is non-decreasing (gaps
        # copy their right neighbour, padding is the maximum)
        return probe(*self.cpu_tree.leaf_lines(),
                     np.asarray(codes, dtype=np.int64), q,
                     self.spec.max_value)

    # ------------------------------------------------------------------
    # profiling / cost model

    def _profile_walk(self, queries: np.ndarray):
        return regular_walk(self.cpu_tree, queries)

    def _touch_leaves(self, codes: np.ndarray) -> None:
        fanout = self.cpu_tree.fanout
        self.cpu_tree._touch_leaf_lines(codes // fanout, codes % fanout)
