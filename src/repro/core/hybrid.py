"""What the regular and the implicit HB+-tree share (paper section 5.4).

Both trees answer a bucket the same way: the GPU descends the mirrored
I-segment to one per-query code (T2), the CPU finishes in the
L-segment (T4).  :class:`HybridTree` holds that flow — launch
screening, the charged descent, the full lookup, range-scan starts and
the sampled T1-T4 cost model — so each tree supplies only its layout:
``gpu_descend``, ``cpu_finish_bucket``, ``_profile_walk`` (its one
instrumented CPU walk), ``_touch_leaves``, how a code names a leaf,
its stored keys and its GPU level count.

Every CPU-side price reads one instrumented walk per layout, level by
level across the sample (Algorithm 2's order): :func:`regular_walk` and
:func:`implicit_walk`.  The walks also return the node streams a full
GPU descent charges, so :meth:`HybridTree.cost_profile` prices every
kernel without descending on the GPU.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.coalesce import windowed_distinct
from repro.gpusim.kernels.frontier_search import (
    FRONTIER,
    KERNELS,
    PER_QUERY,
    validate_kernel,
)
from repro.gpusim.transfer import PcieLink
from repro.keys import key_spec
from repro.memsim.mainmem import MemorySystem
from repro.obs import NULL_OBS
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import (
    BucketCosts,
    CpuCostModel,
    CpuQueryProfile,
    hybrid_bucket_costs,
)


@dataclass
class GpuSearchResult:
    """Outcome of the GPU stage for one bucket: one code per query.

    A code addresses where the CPU finishes — a (node, leaf-line) pair
    in the regular tree, a leaf index in the implicit tree.
    """

    codes: np.ndarray
    transactions: int

    @property
    def transactions_per_query(self) -> float:
        if len(self.codes) == 0:
            return 0.0
        return self.transactions / len(self.codes)


class CostProfile(NamedTuple):
    """What :meth:`repro.core.load_balance.SplitCostModel.reprofile`
    measures on a sample: the CPU profile of each inner level (root
    first), the leaf-stage profile, and the transactions a full GPU
    descent of the sample charges under each kernel."""

    levels: List[CpuQueryProfile]
    leaf: CpuQueryProfile
    transactions: Dict[str, int]


def profile_implicit_levels(tree, mem: MemorySystem, queries: np.ndarray
                            ) -> Tuple[List[CpuQueryProfile], np.ndarray,
                                       np.ndarray]:
    """Instrumented walk of an implicit layout's inner levels.

    ``tree`` is an :class:`~repro.cpu.implicit_levels.ImplicitLevels`
    layout (the implicit CPU tree or a CSS-tree directory) with an
    I-segment.  Each level touches one I-segment line per
    query, in one :meth:`MemorySystem.touch_lines` call, then steps
    every query down.  Returns ``(profiles, leaf_positions, streams)``:
    row ``level`` of ``streams`` holds each query's node on that level,
    the stream matrix a full GPU descent of the mirrored levels charges
    (:func:`~repro.gpusim.kernels.implicit_search.implicit_descend`).
    An empty ``queries`` touches nothing and profiles zero misses.
    """
    n = len(queries)
    c = mem.counters
    profiles: List[CpuQueryProfile] = []
    streams = np.empty((tree.height, n), dtype=np.int64)
    node = np.zeros(n, dtype=np.int64)
    for level in range(tree.height):
        streams[level] = node
        before = c.cache_misses
        mem.touch_lines(tree.i_segment, tree._level_line_offset(level) + node)
        profiles.append(CpuQueryProfile(
            lines=1.0, misses=(c.cache_misses - before) / max(1, n),
            tlb_small=0.0, tlb_huge=0.0, node_searches=1.0,
        ))
        node = tree.descend_level(level, node, queries)
    return profiles, node, streams


#: an instrumented walk: inner-level profiles (root first), the leaf
#: profile, and the node streams a full GPU descent of it charges
Walk = Tuple[List[CpuQueryProfile], CpuQueryProfile, np.ndarray]


def implicit_walk(tree, queries: np.ndarray) -> Walk:
    """The implicit layout's instrumented walk: the inner levels
    (:func:`profile_implicit_levels`), then each query's leaf line."""
    mem = tree.mem
    c = mem.counters
    n = max(1, len(queries))
    levels, leaf_pos, streams = profile_implicit_levels(tree, mem, queries)
    before = (c.cache_misses, c.tlb_misses_small, c.tlb_misses_huge)
    mem.touch_lines(tree.l_segment, leaf_pos)
    leaf = CpuQueryProfile(
        lines=1.0,
        misses=(c.cache_misses - before[0]) / n,
        tlb_small=(c.tlb_misses_small - before[1]) / n,
        tlb_huge=(c.tlb_misses_huge - before[2]) / n,
        node_searches=1.0,
    )
    return levels, leaf, streams


def regular_walk(tree, queries: np.ndarray) -> Walk:
    """The regular layout's instrumented walk over a
    :class:`~repro.cpu.btree_regular.RegularCpuBPlusTree`: each level
    touches every query's index, key and ref line in one
    :meth:`MemorySystem.touch_lines` call, the leaf stage each query's
    big-leaf line.  The walk is the one ``regular_search_vectorized``
    runs over the mirror, and fills the same ``(3h - 1) x n`` streams:
    the size-clamped slot is the child the mirrored node, its last used
    key pinned to the maximum, picks.
    """
    tree._ensure_segments()
    mem = tree.mem
    n = max(1, len(queries))
    kpl = tree.spec.keys_per_line
    streams = np.empty((3 * tree.height - 1, len(queries)), dtype=np.int64)
    levels: List[CpuQueryProfile] = []
    for level, node, _k, slot in tree._walk(queries, streams):
        misses = mem.touch_lines(
            tree.i_segment,
            np.stack(tree._inner_lines(level, node, slot // kpl), axis=1),
        )
        levels.append(CpuQueryProfile(
            lines=3.0, misses=misses / n, tlb_small=0.0, tlb_huge=0.0,
            node_searches=2.0,
        ))
    leaf = CpuQueryProfile(
        lines=1.0, misses=tree._touch_leaf_lines(node, slot) / n,
        tlb_small=0.5, tlb_huge=0.0, node_searches=1.0,
    )
    return levels, leaf, streams


def steady_profile(tree, queries: np.ndarray, warm: bool, walk,
                   node_searches: float) -> CpuQueryProfile:
    """Profile of ``walk`` over ``queries``; with ``warm`` the first
    half only warms the cache and the disjoint second half is measured
    (re-measuring the warm-up queries would overstate the hit rate)."""
    q = np.asarray(queries, dtype=tree.spec.dtype)
    measured = q
    if warm and len(q) >= 2:
        measured = q[len(q) // 2:]
        walk(tree, q[:len(q) // 2])
    tree.mem.reset_counters()
    walk(tree, measured)
    counters = tree.mem.counters
    counters.queries = len(measured)
    return CpuQueryProfile.from_counters(
        counters, node_searches_per_query=node_searches
    )


def profile_implicit(tree, queries: np.ndarray,
                     warm: bool = True) -> CpuQueryProfile:
    """Memory profile of implicit-tree lookups (H+1 lines per query),
    from :func:`implicit_walk`."""
    if tree.mem is None or tree.i_segment is None:
        raise ValueError("tree must be built with a MemorySystem to profile")
    return steady_profile(tree, queries, warm, implicit_walk,
                          tree.height + 1)


def profile_regular(tree, queries: np.ndarray,
                    warm: bool = True) -> CpuQueryProfile:
    """Memory profile of regular-tree lookups (3 lines per inner node),
    from :func:`regular_walk`."""
    if tree.mem is None:
        raise ValueError("tree must be built with a MemorySystem to profile")
    return steady_profile(tree, queries, warm, regular_walk,
                          2.0 * tree.height + 1)


def pack_levels(levels: Sequence[np.ndarray], fanout: int, spec
                ) -> Tuple[np.ndarray, List[int], List[int]]:
    """The flat breadth-first device image of an implicit layout's
    inner levels (root first), with each level's element offset and
    size.  A layout without inner levels packs one all-maximum node."""
    if not levels:
        return np.full(fanout, spec.max_value, dtype=spec.dtype), [0], [fanout]
    sizes = [level.size for level in levels]
    offsets = list(accumulate(sizes[:-1], initial=0))
    return np.concatenate([lvl.reshape(-1) for lvl in levels]), offsets, sizes


def kernel_transactions(tree, streams: np.ndarray) -> Dict[str, int]:
    """Each kernel's transactions for a full descent whose per-level
    node ids are ``streams`` (one column per query): one windowed
    distinct count per kernel, over ``tree.coalescing_window`` —
    exactly what either layout's descent charges, since a kernel moves
    only that window."""
    n_queries = streams.shape[1]
    return {
        kern: windowed_distinct(
            streams, tree.coalescing_window(kern, n_queries)
        )
        for kern in KERNELS
    }


class HybridTree:
    """Base of the hybrid trees: one bucket flow over a CPU + GPU."""

    #: seed of the workload sample :meth:`bucket_costs` draws
    COST_SAMPLE_SEED = 0
    #: whether a GPU descent can resume mid-tree
    #: (``cpu_descend_top`` / ``gpu_descend_from``), which the
    #: load-balanced (D, R) split needs; only the implicit layout can
    supports_split_descent = False

    def __init__(self, machine: MachineConfig, key_bits: int,
                 mem: Optional[MemorySystem]):
        self.machine = machine
        self.spec = key_spec(key_bits)
        self.mem = mem if mem is not None else MemorySystem.from_spec(machine.cpu)
        self.device = GpuDevice(machine.gpu)
        self.link = PcieLink(machine.pcie)
        #: :class:`repro.obs.Observability`; the shared disabled bundle
        #: until :meth:`attach_obs` threads a live one through
        self.obs = NULL_OBS
        #: default GPU search kernel for calls that do not pass one —
        #: ``"per_query"`` charges warp-window coalescing, ``"frontier"``
        #: level-wise block-wide dedup; engines and balancers override
        #: it per bucket via ``kernel=``
        self.kernel = PER_QUERY
        #: serializes every serving path over this tree — engine
        #: reads and writes (``write_batch``), direct range scans —
        #: against engine ``quiesce()`` windows (engines adopt this
        #: lock), so a snapshot never observes a mid-split chain
        self.serve_lock = threading.RLock()

    # -- per-tree layout hooks ------------------------------------------

    @property
    def gpu_levels(self) -> int:
        """Inner levels the GPU stage walks (0 launches nothing)."""
        raise NotImplementedError

    def _leaves_of(self, codes: np.ndarray) -> np.ndarray:
        """The leaf each GPU code lands in (where a range scan starts)."""
        raise NotImplementedError

    def _profile_walk(self, queries: np.ndarray) -> Walk:
        """This layout's one instrumented CPU walk of ``queries`` (in
        the key dtype): :func:`regular_walk` or :func:`implicit_walk`."""
        raise NotImplementedError

    def _touch_leaves(self, codes: np.ndarray) -> None:
        """Touch the L-segment line each GPU code addresses, in order."""
        raise NotImplementedError

    # -- the mirror protocol --------------------------------------------

    def pack_i_segment(self) -> np.ndarray:
        """The device image of the I-segment, packed from the CPU tree
        (the source of truth).  Touches neither the GPU nor the
        injector."""
        raise NotImplementedError

    def mirror_layout(self) -> Dict[str, int]:
        """The layout parameters of the device mirror as last
        uploaded, which a rebuilt mirror must reproduce."""
        raise NotImplementedError

    def mirror_i_segment(self) -> float:
        """Pack and upload the whole I-segment; returns the transfer
        time in ns."""
        raise NotImplementedError

    def mirror_matches(self) -> bool:
        """True when the device mirror equals :meth:`pack_i_segment`
        bit for bit.  Reads the mirror without screening it through
        the injector."""
        return bool(np.array_equal(self.iseg_buffer.array,
                                   self.pack_i_segment()))


    # ------------------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Thread a :class:`repro.obs.Observability` bundle through the
        PCIe link, the GPU device, and this tree.  Engines constructed
        over this tree without an explicit bundle follow it."""
        self.obs = obs
        self.link.obs = obs
        self.device.obs = obs

    @property
    def i_segment_bytes(self) -> int:
        return self.iseg_buffer.nbytes

    @property
    def height(self) -> int:
        return self.cpu_tree.height

    @property
    def teams_per_warp(self) -> int:
        return max(1, self.machine.gpu.warp_size // self.spec.gpu_threads_per_query)

    def _resolve_kernel(self, kernel: Optional[str]) -> str:
        """``kernel`` argument, or this tree's default; validated."""
        return validate_kernel(kernel if kernel is not None else self.kernel)

    def coalescing_window(self, kernel: Optional[str],
                          n_queries: int) -> int:
        """Queries whose loads one transaction count deduplicates over
        under ``kernel`` (None = this tree's default): the whole bucket
        for the frontier kernel, one cooperative block; one warp's
        teams for the per-query kernel.  The one place a kernel choice
        reaches the descent, which is otherwise the same walk."""
        if self._resolve_kernel(kernel) == FRONTIER:
            return max(1, n_queries)
        return self.teams_per_warp

    # ------------------------------------------------------------------
    # search

    def gpu_begin_bucket(self, n_queries: int) -> bool:
        """Screen + count one bucket's kernel launch (stage-2 entry).

        The stateful prologue of :meth:`gpu_search_bucket` — injector
        consultation and launch counter, via ``device.begin_launch`` —
        kept apart from the pure :meth:`gpu_descend` so pricing can
        descend without launching.  Returns False when the bucket
        launches nothing (empty bucket, or no GPU levels to walk).
        """
        if n_queries == 0 or self.gpu_levels == 0:
            return False
        self.device.begin_launch()
        return True

    def _charged(self, codes: np.ndarray, txns: int) -> GpuSearchResult:
        """Book one launched bucket's transactions on the device."""
        self.device.memory.counters.transactions_64 += txns
        self.device.memory.counters.bytes_moved += txns * 64
        return GpuSearchResult(codes=codes, transactions=txns)

    def gpu_search_bucket(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> GpuSearchResult:
        """Stage 2: screen the launch, descend, charge the device."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        if not self.gpu_begin_bucket(len(q)):
            # a bucket that launches nothing costs nothing
            return GpuSearchResult(
                codes=np.zeros(len(q), dtype=np.int64), transactions=0
            )
        return self._charged(*self.gpu_descend(q, kernel=kern))

    def modeled_transactions(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> int:
        """Transactions the GPU stage would charge for ``queries``.

        Pure measurement through the coalescing model — no launch, no
        device counters.  Used to price the arrival-order baseline of
        a sorted bucket (:func:`repro.core.batching.measure_sorted_delta`)
        and by the balancers to price each kernel when they profile.
        """
        _codes, txns = self.gpu_descend(queries, kernel=kernel)
        return txns

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Full hybrid lookup; the sentinel value marks not-found.

        Keys of any integer dtype (or plain Python ints) are coerced
        once via :meth:`repro.keys.KeySpec.coerce`, which raises
        ``OverflowError`` on out-of-range keys instead of wrapping them.
        """
        q = self.spec.coerce(queries)
        result = self.gpu_search_bucket(q)
        return self.cpu_finish_bucket(q, result.codes)

    def lookup(self, key: int) -> Optional[int]:
        out = self.lookup_batch(np.asarray([key], dtype=self.spec.dtype))
        val = int(out[0])
        return None if val == self.spec.max_value else val

    def range_query(self, lo: int, hi: int):
        """Sequential leaf-chain scan, serialized against engine
        ``quiesce()`` windows via the shared serve lock."""
        with self.serve_lock:
            return self.cpu_tree.range_query(lo, hi)

    def cpu_scan_bucket(
        self, los: np.ndarray, his: np.ndarray, codes: np.ndarray
    ) -> List[List[Tuple[int, int]]]:
        """Stage 4 for range scans: leaf walks from GPU-located starts.

        ``codes`` are the per-start-key codes the GPU stage produced for
        the ``lo`` bounds; each walk resumes in the leaf its code names,
        without re-running the CPU descent.
        """
        leaves = self._leaves_of(np.asarray(codes, dtype=np.int64))
        tree = self.cpu_tree
        return [
            tree.range_scan_from(int(leaf), int(lo), int(hi))
            for leaf, lo, hi in zip(
                leaves.tolist(),
                np.asarray(los).tolist(),
                np.asarray(his).tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # cost model

    def key_sample(self, seed: int, size: int, replace: bool = False,
                   fill: bool = False) -> np.ndarray:
        """The one seeded pricing sample of the stored keys.

        Draws ``min(size, stored)`` keys, without replacement unless
        ``replace``.  ``fill`` always draws ``size`` keys and replaces
        only on a smaller tree: duplicate draws inflate a sample's
        distinct fraction, so replacement is a tiny-tree fallback.  An
        empty tree gives an empty sample, which every walk prices as
        zero work.
        """
        stored = self.stored_keys()
        if len(stored) == 0:
            return stored
        rng = np.random.default_rng(seed)
        if fill:
            return rng.choice(stored, size=size, replace=len(stored) < size)
        return rng.choice(stored, size=min(size, len(stored)),
                          replace=replace)

    def _walk_sample(self, sample: np.ndarray) -> Walk:
        self.mem.reset_counters()
        return self._profile_walk(np.asarray(sample, dtype=self.spec.dtype))

    def level_profiles(
        self, sample: np.ndarray
    ) -> Tuple[List[CpuQueryProfile], CpuQueryProfile]:
        """Instrumented CPU profiles of ``sample``'s descent: one per
        inner level (root first) and one for the leaf stage.  The
        per-level costs of :class:`repro.core.load_balance.SplitCostModel`
        come from here."""
        levels, leaf, _streams = self._walk_sample(sample)
        return levels, leaf

    def cost_profile(self, sample: np.ndarray) -> CostProfile:
        """:meth:`level_profiles` of ``sample`` plus each kernel's
        full-descent transactions, from the same walk: on each level
        the CPU walk visits the nodes the GPU stage reads for each
        query, so its node streams are the stream matrix of
        :meth:`gpu_descend`, and each kernel's count is one windowed
        distinct pass over them (:func:`kernel_transactions`)."""
        levels, leaf, streams = self._walk_sample(sample)
        return CostProfile(levels, leaf, kernel_transactions(self, streams))

    def profile_leaf_stage(self, sample_queries: np.ndarray,
                           codes: Optional[np.ndarray] = None
                           ) -> CpuQueryProfile:
        """Measure the CPU leaf stage's per-query memory behaviour on
        the leaves the GPU codes ``codes`` address (default: a pure
        descent of ``sample_queries``)."""
        q = np.asarray(sample_queries, dtype=self.spec.dtype)
        if codes is None:
            codes = self.gpu_descend(q)[0]
        self.mem.reset_counters()
        self._touch_leaves(np.asarray(codes, dtype=np.int64))
        counters = self.mem.counters
        counters.queries = len(q)
        return CpuQueryProfile.from_counters(counters,
                                             node_searches_per_query=1.0)

    def bucket_costs(
        self,
        bucket_size: Optional[int] = None,
        sample: Optional[np.ndarray] = None,
        cpu_model: Optional[CpuCostModel] = None,
        sort_batches: bool = False,
    ) -> BucketCosts:
        """The paper's T1-T4 for this tree, measured on a sampled workload.

        ``sort_batches=True`` prices the sorted/deduplicated pipeline of
        :class:`repro.core.batching.BatchingEngine`: the GPU stage is
        measured on the sorted distinct sample (fewer transactions per
        query) and all four stages are scaled by the sample's distinct
        fraction, since duplicates collapse before transfer.
        """
        bucket_size = bucket_size or self.machine.bucket_size
        if sample is None:
            sample = self.key_sample(self.COST_SAMPLE_SEED, 4096, fill=True)
            if len(sample) == 0:
                raise ValueError(
                    "bucket_costs needs stored keys to sample a workload; "
                    "the tree is empty — add keys first or pass "
                    "sample= explicitly"
                )
        sample = np.asarray(sample, dtype=self.spec.dtype)
        if len(sample) == 0:
            raise ValueError("bucket_costs sample must be non-empty")
        unique_fraction = 1.0
        if sort_batches:
            from repro.core.batching import plan_bucket

            plan = plan_bucket(sample, dtype=self.spec.dtype)
            unique_fraction = plan.n_unique / plan.n_queries
            sample = plan.sorted_unique
        # priced through the pure descent: no launch, no device counter,
        # no injector draw
        codes, txns = self.gpu_descend(sample)
        leaf_profile = self.profile_leaf_stage(sample, codes)
        return hybrid_bucket_costs(
            self.machine,
            self.spec,
            bucket_size,
            gpu_transactions_per_query=txns / len(sample),
            gpu_levels=float(self.gpu_levels),
            cpu_leaf_profile=leaf_profile,
            cpu_model=cpu_model,
            unique_fraction=unique_fraction,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self.cpu_tree)}, "
            f"height={self.height}, machine={self.machine.name!r}, "
            f"iseg={self.i_segment_bytes}B)"
        )

    def __len__(self) -> int:
        return len(self.cpu_tree)

    def stored_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CPU tree's stored ``(keys, values)``, in key order."""
        return self.cpu_tree.stored_items()

    def stored_keys(self) -> np.ndarray:
        """Every stored key, the population :meth:`key_sample` draws."""
        return self.cpu_tree.stored_keys()

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None
