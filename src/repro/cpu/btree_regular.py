"""The regular (pointer-based) CPU-optimized B+-tree.

Node structures follow Fig 2 (c)-(d) and section 4.1:

* an **inner node** spans ``1 + 2*K`` cache lines (17 for 64-bit keys):
  one *index line* whose entry ``s`` is the maximum key of key-line
  ``s`` (``I_s = K_{8s}``), ``K`` key lines and ``K`` reference lines,
  giving fanout ``F_I = K*K`` (64 for 64-bit, 256 for 32-bit).  Node
  search touches exactly three of these lines: index line, one key
  line, one reference line.
* **node fragmentation**: bookkeeping (size, parent, siblings) lives in
  a second fragment allocated from a parallel pool sharing the node's
  index, so lookups never drag bookkeeping into the cache.
* a **big leaf** packs ``F_I`` cache-line leaves (4 pairs each for
  64-bit) plus one info line, for a capacity of 256 key-value pairs.
  Every last-level inner node is paired with exactly one big leaf *at
  the same pool index*, so the inner-node search result directly
  addresses the cache line inside the leaf.

Empty key slots hold the maximum representable value, so node search
needs no size field (section 4.1).

Updates: every write, one-key ``insert``/``delete`` included, runs
through the batch primitive ``apply_batch``, with big-leaf and
inner-node splits.  Underfull nodes after deletion are collapsed only
when empty (lazy deletion) — the paper's batch-update workloads are
insert/modify dominated and never rebalance eagerly either (section 5.6
resolves >99% of updates inside a big leaf).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.contents import SortedContents
from repro.cpu.node_search import (
    NodeSearchAlgorithm,
    leaf_hit,
    leaf_line_costs,
    search_costs,
    search_leaf_line,
)
from repro.descent import (
    Level,
    lower_bound,
    probe,
    regular_descend,
    regular_levels,
)
from repro.keys import KeySpec, key_spec, sorted_pairs
from repro.memsim.allocator import Segment
from repro.memsim.mainmem import MemorySystem, PageConfig

_NIL = -1


def _multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + c)`` per (start, count),
    without a Python-level loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        counts.cumsum() - counts, counts
    )
    return np.repeat(np.asarray(starts, dtype=np.int64), counts) + offsets


def _reserve(pool, count: int) -> None:
    """Double a pool's capacity (16 at birth) until it holds ``count``
    nodes, the growth one allocation at a time makes."""
    capacity = pool.keys.shape[0]
    while capacity < count:
        capacity *= 2
    if capacity > pool.keys.shape[0]:
        pool._grow(capacity)


def _link(prev: np.ndarray, next_: np.ndarray, nodes: slice) -> None:
    """Chain the consecutive ``nodes`` left to right; both ends NIL."""
    ids = np.arange(nodes.start, nodes.stop, dtype=np.int64)
    prev[nodes] = ids - 1
    prev[nodes.start] = _NIL
    next_[nodes] = ids + 1
    next_[nodes.stop - 1] = _NIL


class _InnerPool:
    """A growable pool of inner nodes, fragmented into two structures.

    Fragment A: ``keys`` + ``refs`` + derived ``index_line`` (the 17
    cache lines).  Fragment B: ``size``/``parent``/``next``/``prev``.
    Both fragments share the node index.

    Write-barrier rule: every write to a node's ``keys``, ``refs`` or
    ``size`` ends in :meth:`allocate` or :meth:`refresh_index`.  Both
    bump the pool's ``writes`` stamp and, for an existing node, its
    ``version``.  The hybrid tree reuses its packed device image while
    the stamps are unchanged (``HBPlusTree.current_i_segment_image``)
    and pushes exactly the nodes whose version moved or that were
    appended (``HBPlusTree.sync_nodes``), so a writer that skips the
    barrier leaves the image and the mirror stale.
    ``validate_hybrid_regular`` checks the rule.
    """

    def __init__(self, spec: KeySpec, capacity: int = 16):
        self.spec = spec
        self.fanout = spec.regular_fanout
        self._grow_to(capacity)
        self.count = 0
        self._free: List[int] = []
        #: pool-wide write stamp: bumped by every ``allocate`` and
        #: ``refresh_index``, so an unchanged stamp means an unchanged
        #: packed image of the pool
        self.writes = 0

    def _grow_to(self, capacity: int) -> None:
        sentinel = self.spec.max_value
        kpl = self.spec.keys_per_line
        self.keys = np.full((capacity, self.fanout), sentinel, dtype=self.spec.dtype)
        self.index_line = np.full((capacity, kpl), sentinel, dtype=self.spec.dtype)
        self.refs = np.full((capacity, self.fanout), _NIL, dtype=np.int64)
        self.size = np.zeros(capacity, dtype=np.int64)
        self.parent = np.full(capacity, _NIL, dtype=np.int64)
        self.next = np.full(capacity, _NIL, dtype=np.int64)
        self.prev = np.full(capacity, _NIL, dtype=np.int64)
        self.version = np.zeros(capacity, dtype=np.int64)

    def _grow(self, capacity: int) -> None:
        old = (self.keys, self.index_line, self.refs, self.size, self.parent,
               self.next, self.prev, self.version)
        n = self.keys.shape[0]
        self._grow_to(capacity)
        for new_arr, old_arr in zip(
            (self.keys, self.index_line, self.refs, self.size, self.parent,
             self.next, self.prev, self.version),
            old,
        ):
            new_arr[:n] = old_arr

    def allocate(self) -> int:
        if self._free:
            node = self._free.pop()
            # a reused slot's content changes: a write batch's version
            # diff must see it even before its first refresh (a fresh
            # slot is past the batch's starting count instead)
            self.version[node] += 1
        else:
            _reserve(self, self.count + 1)
            node = self.count
            self.count += 1
        sentinel = self.spec.max_value
        self.keys[node] = sentinel
        self.index_line[node] = sentinel
        self.refs[node] = _NIL
        self.size[node] = 0
        self.parent[node] = _NIL
        self.next[node] = _NIL
        self.prev[node] = _NIL
        self.writes += 1
        return node

    def free(self, node: int) -> None:
        self._free.append(node)

    def refresh_index(self, node: int) -> None:
        """Recompute the index line: I_s = max key of key-line s.

        Every key/ref mutation ends in a ``refresh_index``, so the call
        doubles as the node's write barrier: it bumps the node's
        monotonically-increasing version stamp (FB+-tree-style).  The
        stamp never resets — not even across ``free``/``allocate`` — so
        optimistic readers can not be fooled by slot reuse (ABA).
        """
        self.refresh_indexes(slice(node, node + 1))

    def append(self, n: int) -> slice:
        """Add ``n`` fresh nodes at the end of the pool in one step and
        return their ids: the state ``n`` :meth:`allocate` calls leave
        on a pool with no free slot (rows past ``count`` were never
        written, so they already hold the blank node)."""
        start = self.count
        _reserve(self, start + n)
        self.count += n
        self.writes += n
        return slice(start, start + n)

    def refresh_indexes(self, nodes: slice) -> None:
        """:meth:`refresh_index` of every node in ``nodes`` at once."""
        kpl = self.spec.keys_per_line
        keys = self.keys[nodes]
        self.index_line[nodes] = keys.reshape(len(keys), kpl, kpl)[:, :, -1]
        self.version[nodes] += 1
        self.writes += len(keys)


class _LeafPool:
    """Big leaves: ``F_I`` packed cache-line leaves + one info line.

    Indexes are shared with the last-level inner pool: big leaf ``i``
    belongs to last-level inner node ``i``.
    """

    def __init__(self, spec: KeySpec, capacity: int = 16):
        self.spec = spec
        self.capacity_pairs = spec.regular_fanout * spec.leaf_pairs_per_line
        self._grow_to(capacity)
        self.count = 0
        self._free: List[int] = []

    def _grow_to(self, capacity: int) -> None:
        sentinel = self.spec.max_value
        self.keys = np.full(
            (capacity, self.capacity_pairs), sentinel, dtype=self.spec.dtype
        )
        self.values = np.zeros((capacity, self.capacity_pairs), dtype=self.spec.dtype)
        self.size = np.zeros(capacity, dtype=np.int64)
        self.next = np.full(capacity, _NIL, dtype=np.int64)
        self.prev = np.full(capacity, _NIL, dtype=np.int64)
        #: monotonically-increasing per-leaf write stamp (never reset,
        #: mirroring :class:`_InnerPool`); bumped on every content write
        self.version = np.zeros(capacity, dtype=np.int64)

    def _grow(self, capacity: int) -> None:
        old = (self.keys, self.values, self.size, self.next, self.prev,
               self.version)
        n = self.keys.shape[0]
        self._grow_to(capacity)
        for new_arr, old_arr in zip(
            (self.keys, self.values, self.size, self.next, self.prev,
             self.version), old
        ):
            new_arr[:n] = old_arr

    def allocate(self) -> int:
        if self._free:
            leaf = self._free.pop()
        else:
            _reserve(self, self.count + 1)
            leaf = self.count
            self.count += 1
        self.keys[leaf] = self.spec.max_value
        self.values[leaf] = 0
        self.size[leaf] = 0
        self.next[leaf] = _NIL
        self.prev[leaf] = _NIL
        return leaf

    def free(self, leaf: int) -> None:
        self._free.append(leaf)

    def append(self, n: int) -> slice:
        """Add ``n`` fresh leaves at the end of the pool in one step
        (see :meth:`_InnerPool.append`) and return their ids."""
        start = self.count
        _reserve(self, start + n)
        self.count += n
        return slice(start, start + n)

    @property
    def lines_per_leaf(self) -> int:
        """Cache lines per big leaf including the info line."""
        return self.spec.regular_fanout + 1


class RegularCpuBPlusTree(SortedContents):
    """A fully dynamic B+-tree with the paper's cache-blocked layout.

    ``height`` counts inner levels; it is at least 1 because the
    last-level inner node (paired with its big leaf) always exists.
    """

    def __init__(
        self,
        keys: Sequence[int] = (),
        values: Sequence[int] = (),
        key_bits: int = 64,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_SMALL,
        algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.HIERARCHICAL_SIMD,
        segment_prefix: str = "regular",
        fill: float = 1.0,
    ):
        self.spec = key_spec(key_bits)
        self.fanout = self.spec.regular_fanout
        self.algorithm = algorithm
        self.mem = mem
        self.page_config = page_config
        self._segment_prefix = segment_prefix
        self.i_segment: Optional[Segment] = None
        self.l_segment: Optional[Segment] = None
        self.upper = _InnerPool(self.spec)
        self.last = _InnerPool(self.spec)
        self.leaves = self._make_leaf_pool()
        self.num_tuples = 0
        # an empty tree still has one (empty) last-level inner + big leaf
        self.root = self._new_last_level_node()
        self.height = 1
        self._first_leaf = self.root
        if len(keys):
            self.bulk_build(keys, values, fill=fill)

    # ------------------------------------------------------------------
    # allocation helpers

    def _make_leaf_pool(self) -> _LeafPool:
        """Leaf-pool factory; the gapped subclass swaps in its pool."""
        return _LeafPool(self.spec)

    def _new_last_level_node(self) -> int:
        node = self.last.allocate()
        leaf = self.leaves.allocate()
        if node != leaf:
            raise AssertionError(
                "last-level inner pool and leaf pool indexes diverged"
            )
        return node

    def _pool(self, level: int) -> _InnerPool:
        """Pool for a level; level 0 is the last (leaf-adjacent) level."""
        return self.last if level == 0 else self.upper

    # ------------------------------------------------------------------
    # geometry / instrumentation

    @property
    def lines_per_inner(self) -> int:
        return 1 + 2 * self.spec.keys_per_line

    @property
    def i_segment_bytes(self) -> int:
        nodes = self.upper.count + self.last.count
        return nodes * self.lines_per_inner * self.spec.cache_line

    @property
    def l_segment_bytes(self) -> int:
        return self.leaves.count * self.leaves.lines_per_leaf * self.spec.cache_line

    def _ensure_segments(self) -> None:
        """(Re)allocate simulation segments sized for current pools."""
        if self.mem is None:
            return
        prefix = self._segment_prefix
        need_i = max(self.spec.cache_line, self.i_segment_bytes)
        need_l = max(self.spec.cache_line, self.l_segment_bytes)
        if self.i_segment is None or self.i_segment.size < need_i:
            if f"{prefix}.I" in self.mem.allocator:
                self.mem.allocator.free(f"{prefix}.I")
            self.i_segment = self.mem.allocate(
                f"{prefix}.I", 2 * need_i, self.page_config.inner_kind
            )
        if self.l_segment is None or self.l_segment.size < need_l:
            if f"{prefix}.L" in self.mem.allocator:
                self.mem.allocator.free(f"{prefix}.L")
            self.l_segment = self.mem.allocate(
                f"{prefix}.L", 2 * need_l, self.page_config.leaf_kind
            )

    def _inner_lines(self, level: int, node, group) -> tuple:
        """I-segment indexes of the index, key and ref line a node
        search reads (scalars or arrays of nodes and key-line groups)."""
        # upper-pool nodes first in the I-segment, then last-level nodes
        line0 = (node + (self.upper.count if level == 0 else 0)) * (
            self.lines_per_inner
        )
        return (line0, line0 + 1 + group,
                line0 + 1 + self.spec.keys_per_line + group)

    def _touch_inner(self, level: int, node: int, group: int) -> None:
        """Charge the three cache lines a node search reads."""
        if self.mem is None:
            return
        self._ensure_segments()
        for line in self._inner_lines(level, node, group):
            self.mem.touch_line(self.i_segment, line)

    def _touch_leaf_line(self, leaf: int, line: int) -> None:
        if self.mem is None:
            return
        self._ensure_segments()
        self.mem.touch_line(
            self.l_segment, leaf * self.leaves.lines_per_leaf + line
        )

    def _touch_leaf_lines(self, leaves: np.ndarray, lines: np.ndarray) -> int:
        """Batched :meth:`_touch_leaf_line`; identical counter effects.
        Returns the cache misses."""
        if self.mem is None:
            return 0
        self._ensure_segments()
        indices = (
            np.asarray(leaves, dtype=np.int64) * self.leaves.lines_per_leaf
            + np.asarray(lines, dtype=np.int64)
        )
        return self.mem.touch_lines(self.l_segment, indices)

    # ------------------------------------------------------------------
    # node search (3 cache lines: index, key line, ref line)

    def _count_below(self, row: np.ndarray, key: int) -> int:
        """Keys of a non-decreasing node row strictly below ``key``."""
        if key > self.spec.max_value:
            return len(row)
        # the scalar must carry the row's dtype: a Python int above
        # 2**53 would be compared as float64
        return int(np.searchsorted(row, self.spec.dtype(max(key, 0))))

    def _charge_inner(self, counters, below) -> None:
        """Add what the configured algorithm records for node searches
        whose keys below the query number ``below`` (scalar or array):
        one search of the index line, one of the chosen key line."""
        kpl = self.spec.keys_per_line
        below = np.asarray(below, dtype=np.int64)
        group = np.minimum(below // kpl, kpl - 1)
        for stage in (below // kpl, below - group * kpl):
            cmp, ops = search_costs(self.algorithm, kpl, stage)
            counters.key_comparisons += int(cmp.sum())
            counters.simd_ops += int(ops.sum())

    def _search_inner(self, pool: _InnerPool, node: int, key: int,
                      counters=None) -> int:
        """Return the child slot for ``key`` (clamped to node size).

        Closed form of the three-line node search (Snippets 1/2, kept
        in :mod:`repro.cpu.node_search`): every inner node is
        non-decreasing with ``max_value`` padding (``check_invariants``),
        so the index-line search picks key line ``below // K`` and the
        key-line search lands on ``below`` itself, where ``below`` is
        the number of keys smaller than ``key`` — one ``searchsorted``.
        ``counters`` receive exactly what the emulated searches record.
        """
        below = self._count_below(pool.keys[node], key)
        if counters is not None:
            self._charge_inner(counters, below)
        return min(below, max(int(pool.size[node]) - 1, 0))

    # ------------------------------------------------------------------
    # lookup

    def _descend(self, key: int, instrument: bool) -> Tuple[int, int]:
        """Walk to the last-level node; returns (node, leaf_line)."""
        counters = self.mem.counters if (instrument and self.mem) else None
        node = self.root
        for level in range(self.height - 1, 0, -1):
            slot = self._search_inner(self.upper, node, key, counters)
            if instrument:
                self._touch_inner(level, node, slot // self.spec.keys_per_line)
            node = int(self.upper.refs[node, slot])
        slot = self._search_inner(self.last, node, key, counters)
        if instrument:
            self._touch_inner(0, node, slot // self.spec.keys_per_line)
        return node, slot

    def lookup(self, key: int, instrument: bool = True) -> Optional[int]:
        """Point query; returns the value or None."""
        key = int(key)
        node, line = self._descend(key, instrument)
        counters = self.mem.counters if (instrument and self.mem) else None
        if instrument:
            self._touch_leaf_line(node, line)
        p = self.spec.leaf_pairs_per_line
        row = self.leaves.keys[node, line * p: (line + 1) * p]
        pos = search_leaf_line(row, key, counters, self.algorithm)
        if counters is not None:
            counters.queries += 1
        if leaf_hit(row, pos, key, self.spec.max_value):
            return int(self.leaves.values[node, line * p + pos])
        return None

    def _walk(self, q: np.ndarray, streams: Optional[np.ndarray] = None):
        """Vectorised descent of ``q`` (in the key dtype), the batch
        form of :meth:`_search_inner`: the regular layout's one walk,
        :func:`~repro.descent.regular_levels`, over the two node pools.
        Every batch descent of the tree is built on it."""
        last, upper = (Level(pool.keys, 0, pool.refs, pool.size)
                       for pool in (self.last, self.upper))
        return regular_levels(last, upper, self.height, self.root,
                              self.fanout, self.spec.keys_per_line, q,
                              streams)

    def leaf_lines(self) -> Tuple[np.ndarray, np.ndarray]:
        """The leaf pool's keys and values, one row per leaf line: row
        ``node * fanout + line``, a GPU code."""
        p = self.spec.leaf_pairs_per_line
        return (self.leaves.keys.reshape(-1, p),
                self.leaves.values.reshape(-1, p))

    def charge_lookups(self, queries: Sequence[int]) -> None:
        """Charge the instrumented point lookups of ``queries`` at once.

        State-identical to ``lookup(k, instrument=True)`` for each key
        in order, without the answers: the node-search counters come in
        closed form, and every cache line is settled by one ordered
        :meth:`MemorySystem.touch_stream` — three I-segment lines per
        level, then the leaf line, key by key — so the counters, cache
        sets, TLB pools and prefetcher streams end up the same.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        if self.mem is None or len(q) == 0:
            return
        self._ensure_segments()
        counters = self.mem.counters
        kpl = self.spec.keys_per_line
        cols = []
        for level, node, k, slot in self._walk(q):
            # the search costs need the exact count: a full node whose
            # keys are all below the query counts ``fanout``
            self._charge_inner(counters,
                               k + (self._pool(level).keys[node, k] < q))
            cols += self._inner_lines(level, node, slot // kpl)
        p = self.spec.leaf_pairs_per_line
        cmp, ops = leaf_line_costs(self.algorithm, p, lower_bound(
            self.leaf_lines()[0], 0, p, node * self.fanout + slot, q,
            exact=True)[1])
        counters.key_comparisons += int(cmp.sum())
        counters.simd_ops += int(ops.sum())
        counters.queries += len(q)
        cols.append(node * self.leaves.lines_per_leaf + slot)
        which = np.zeros((len(q), len(cols)), dtype=np.int64)
        which[:, -1] = 1
        self.mem.touch_stream(
            (self.i_segment, self.l_segment),
            which.reshape(-1),
            np.stack(cols, axis=1).reshape(-1),
        )

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Vectorised point lookups; the sentinel marks not-found."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        node, line = self.descend_batch(q)
        return probe(*self.leaf_lines(), node * self.fanout + line, q,
                     self.spec.max_value)

    def descend_batch(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised inner descent; returns ``(last_node, leaf_line)``.

        The uninstrumented batch twin of :meth:`_descend` — used by
        :meth:`apply_batch` and the updaters to group ops by leaf.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        return regular_descend(self._walk(q))

    def leaf_chain(self) -> np.ndarray:
        """Big-leaf pool indexes in leaf-chain (key) order."""
        chain: List[int] = []
        node = self._first_leaf
        while node != _NIL:
            chain.append(node)
            node = int(self.leaves.next[node])
        return np.asarray(chain, dtype=np.int64)

    def _stored_mask(self, chain: np.ndarray) -> np.ndarray:
        """Which slots of the ``chain`` leaves hold stored pairs (the
        gapped pool also masks its gaps)."""
        return (np.arange(self.leaves.capacity_pairs)
                < self.leaves.size[chain][:, None])

    def stored_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored (keys, values) in key order.

        Gathers per-leaf pairs with one mask instead of a Python loop
        per tuple; freed pool slots (which keep stale keys) are
        excluded by walking the leaf chain.
        """
        chain = self.leaf_chain()
        mask = self._stored_mask(chain)
        return self.leaves.keys[chain][mask], self.leaves.values[chain][mask]

    def stored_keys(self) -> np.ndarray:
        """The keys of :meth:`stored_items`."""
        chain = self.leaf_chain()
        return self.leaves.keys[chain][self._stored_mask(chain)]

    def _gather_pairs(self, nodes: np.ndarray, a: np.ndarray,
                      b: np.ndarray,
                      results: List[Tuple[int, int]]) -> None:
        """Append the pairs in slots ``[a_i, b_i)`` of each leaf, in
        chain order (the gapped pool overrides to mask gap slots)."""
        cap = self.leaves.capacity_pairs
        idx = _multi_arange(nodes * cap + a, b - a)
        k = self.leaves.keys.reshape(-1)[idx]
        v = self.leaves.values.reshape(-1)[idx]
        results.extend(zip(k.tolist(), v.tolist()))

    def _scan_chain(self, node: int, lo: int, hi: int,
                    instrument: bool = True) -> List[Tuple[int, int]]:
        """Vectorised leaf-chain scan from leaf ``node``.

        The per-leaf loop does scalar bookkeeping only — a
        ``searchsorted`` runs solely in the first contributing leaf
        (chain keys are globally non-decreasing, so every later leaf
        starts at slot 0) and in the terminating leaf (detected by one
        last-key comparison).  The touched-line stream and the result
        gather are each issued as one batched call at scan end, in the
        exact order a slot-by-slot walk produces them (the scalar
        reference walk in ``repro.bench.scan``): identical results,
        identical modeled counters.
        """
        counters = self.mem.counters if (instrument and self.mem) else None
        p = self.spec.leaf_pairs_per_line
        lo_t = self.spec.dtype(lo)
        hi_t = self.spec.dtype(hi)
        leaf_keys = self.leaves.keys
        leaf_size = self.leaves.size
        leaf_next = self.leaves.next
        seg_node: List[int] = []
        seg_a: List[int] = []
        seg_b: List[int] = []
        line_node: List[int] = []
        line_a: List[int] = []
        line_b: List[int] = []
        seeking = True
        while node != _NIL:
            size = int(leaf_size[node])
            if size:
                if seeking:
                    start = int(
                        np.searchsorted(leaf_keys[node, :size], lo_t)
                    )
                else:
                    start = 0
                if start < size:
                    seeking = False
                    if leaf_keys[node, size - 1] <= hi_t:
                        # whole remainder of the leaf qualifies
                        stop = size - start
                        terminates = False
                    else:
                        stop = int(np.searchsorted(
                            leaf_keys[node, start:size], hi_t,
                            side="right",
                        ))
                        terminates = True
                    last_slot = start + stop if terminates else size - 1
                    line_node.append(node)
                    line_a.append(start // p)
                    line_b.append(last_slot // p + 1)
                    if stop:
                        seg_node.append(node)
                        seg_a.append(start)
                        seg_b.append(start + stop)
                    if terminates:
                        break
            node = int(leaf_next[node])
        if instrument and line_node:
            la = np.asarray(line_a, dtype=np.int64)
            cnt = np.asarray(line_b, dtype=np.int64) - la
            self._touch_leaf_lines(
                np.repeat(np.asarray(line_node, dtype=np.int64), cnt),
                _multi_arange(la, cnt),
            )
        results: List[Tuple[int, int]] = []
        if seg_node:
            self._gather_pairs(
                np.asarray(seg_node, dtype=np.int64),
                np.asarray(seg_a, dtype=np.int64),
                np.asarray(seg_b, dtype=np.int64),
                results,
            )
        if counters is not None:
            counters.queries += 1
        return results

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """All (key, value) pairs with ``lo <= key <= hi`` in order.

        Vectorised: identical results and identical modeled leaf-line
        counters to a slot-by-slot walk (see :meth:`_scan_chain`).
        """
        if lo > hi or self.num_tuples == 0:
            return []
        node, _line = self._descend(int(lo), instrument=True)
        return self._scan_chain(node, int(lo), int(hi))

    def range_scan_from(self, node: int, lo: int,
                        hi: int) -> List[Tuple[int, int]]:
        """Leaf-chain scan starting at big leaf ``node`` (no descent).

        The engine scan path locates the start leaf on the GPU and
        finishes here.  Tolerates a start leaf at-or-before the true
        one: leaves whose keys all precede ``lo`` contribute nothing
        and the walk moves on.
        """
        if lo > hi or self.num_tuples == 0:
            return []
        return self._scan_chain(int(node), int(lo), int(hi))

    # ------------------------------------------------------------------
    # key maintenance

    def leaf_occupancy(self, nodes: np.ndarray) -> np.ndarray:
        """Stored pairs per big leaf (the gapped subclass counts live
        pairs, not its interleaved gaps)."""
        return self.leaves.size[np.asarray(nodes, dtype=np.int64)]

    def _refresh_last_level_keys(self, node: int) -> None:
        """Re-derive a last-level inner's keys from its big leaf."""
        self.leaves.version[node] += 1
        p = self.spec.leaf_pairs_per_line
        size = int(self.leaves.size[node])
        lines = (size + p - 1) // p
        keys = np.full(self.fanout, self.spec.max_value, dtype=self.spec.dtype)
        if lines:
            reshaped = self.leaves.keys[node].reshape(self.fanout, p)
            keys[:lines] = reshaped[:lines, -1]
            last_in = size - 1
            keys[lines - 1] = self.leaves.keys[node, last_in]
        self.last.keys[node] = keys
        self.last.size[node] = max(lines, 1)
        self.last.refresh_index(node)

    def _refresh_last_level_range(self, nodes) -> None:
        """:meth:`_refresh_last_level_keys` of every node in ``nodes``
        (a slice or distinct ids) at once.  The scalar form stays for
        one-node writes: over one node this one takes 34 us against its
        9 us (2-core x86-64, numpy 2.4)."""
        self.leaves.version[nodes] += 1
        p = self.spec.leaf_pairs_per_line
        leaf_keys = self.leaves.keys[nodes]
        size = self.leaves.size[nodes]
        n = len(size)
        lines = (size + p - 1) // p
        keys = np.where(
            np.arange(self.fanout) < lines[:, None],
            leaf_keys.reshape(n, self.fanout, p)[:, :, -1],
            self.spec.dtype(self.spec.max_value),
        )
        held = np.flatnonzero(size)
        keys[held, lines[held] - 1] = leaf_keys[held, size[held] - 1]
        self.last.keys[nodes] = keys
        self.last.size[nodes] = np.maximum(lines, 1)
        self.last.refresh_indexes(nodes)

    def _leaf_pairs(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of one leaf's stored (keys, values), gaps excluded."""
        real = self._stored_mask(np.asarray([node]))[0]
        return self.leaves.keys[node][real], self.leaves.values[node][real]

    def _stored_in(self, nodes: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Whether each key of ``q`` is stored in its big leaf ``nodes``
        (the leaf line a lookup would probe; gaps duplicate real keys,
        and the sentinel that pads a leaf is never stored)."""
        _pos, k = lower_bound(self.last.keys, 0, self.fanout, nodes, q)
        line = np.minimum(k, np.maximum(self.last.size[nodes] - 1, 0))
        keys = self.leaf_lines()[0]
        pos, _k = lower_bound(keys, 0, keys.shape[1],
                              nodes * self.fanout + line, q)
        return (keys.reshape(-1)[pos] == q) & (q < self.spec.max_value)

    # ------------------------------------------------------------------
    # leaf layout hooks (the gapped subclass overrides them)

    def _write_leaf_pairs(self, node: int, keys: np.ndarray,
                          values: np.ndarray) -> None:
        """Overwrite a big leaf with sorted pairs: a packed prefix with
        sentinel padding, the state per-op inserts leave behind."""
        m = len(keys)
        self.leaves.keys[node, :m] = keys
        self.leaves.values[node, :m] = values
        self.leaves.keys[node, m:] = self.spec.max_value
        self.leaves.values[node, m:] = 0
        self.leaves.size[node] = m

    def _split_rows(self, node: int, new: int, keys: np.ndarray,
                    values: np.ndarray) -> None:
        """Write a split leaf's lower half of pairs to ``node``, the
        upper half to ``new``."""
        half = len(keys) // 2
        self._write_leaf_pairs(node, keys[:half], values[:half])
        self._write_leaf_pairs(new, keys[half:], values[half:])

    def _row_write(self, node: int, key, value, delete: bool) -> None:
        """One op on one big leaf in place: shift the tail by one."""
        lv = self.leaves
        size = int(lv.size[node])
        row_k, row_v = lv.keys[node], lv.values[node]
        pos = int(np.searchsorted(row_k[:size], key))
        if pos < size and row_k[pos] == key:
            if not delete:
                row_v[pos] = value
                return
            row_k[pos:-1], row_v[pos:-1] = row_k[pos + 1:], row_v[pos + 1:]
            row_k[-1], row_v[-1] = self.spec.max_value, 0
            lv.size[node] = size - 1
        elif not delete:
            row_k[pos + 1:], row_v[pos + 1:] = row_k[pos:-1], row_v[pos:-1]
            row_k[pos], row_v[pos] = key, value
            lv.size[node] = size + 1

    def _merge_rows(self, leaf: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, dele: np.ndarray,
                    delta: np.ndarray) -> None:
        """Merge in-range ops (target ``leaf`` per op) into their leaves
        in one pass.  The last op on a key decides it.  Taken in key
        order, the touched leaves' stored pairs form one sorted array,
        in which each deciding op overwrites, removes or inserts its
        pair; the rows are then written back at once (:meth:`_write_rows`).
        """
        o = np.argsort(keys, kind="stable")
        leaf, keys, values, dele = leaf[o], keys[o], values[o], dele[o]
        new_row = np.r_[True, leaf[1:] != leaf[:-1]]
        nodes, rid = leaf[new_row], np.cumsum(new_row) - 1
        last = np.r_[keys[1:] != keys[:-1], True]
        r, k, v, rm = rid[last], keys[last], values[last], dele[last]
        er, col = np.nonzero(self._stored_mask(nodes))
        flat = nodes[er] * self.leaves.capacity_pairs + col
        ek = self.leaves.keys.reshape(-1)[flat]
        ev = self.leaves.values.reshape(-1)[flat]
        at = np.searchsorted(ek, k)
        hit = (at < len(ek)) & (np.r_[ek, 0][at] == k)
        ev[at[hit & ~rm]] = v[hit & ~rm]
        keep = np.ones(len(ek), dtype=bool)
        keep[at[hit & rm]] = False
        add = ~hit & ~rm
        er, ek, ev, keep = (np.insert(a, at[add], b) for a, b in (
            (er, r[add]), (ek, k[add]), (ev, v[add]), (keep, True)))
        self._write_rows(nodes, ek[keep], ev[keep],
                         np.bincount(er[keep], minlength=len(nodes)))

    def _write_rows(self, nodes: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, sizes: np.ndarray) -> None:
        """Write each leaf of ``nodes`` its run of ``sizes`` pairs from
        ``keys`` / ``values`` (one sorted run per leaf, in order)."""
        lv = self.leaves
        row = np.repeat(nodes, sizes)
        col = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        lv.keys[nodes] = self.spec.max_value
        lv.values[nodes] = 0
        lv.keys[row, col] = keys
        lv.values[row, col] = values
        lv.size[nodes] = sizes

    # ------------------------------------------------------------------
    # batch writes: the tree's one write path

    def insert(self, key: int, value: int) -> bool:
        """Insert or overwrite; returns True if the key was new."""
        return not self.apply_batch([key], [value])[0]

    def delete(self, key: int) -> bool:
        """Remove a key; returns True if it was present."""
        return bool(self.apply_batch([key], [0], [True])[0])

    def apply_batch(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        is_delete: Optional[Sequence[bool]] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply one op stream in array order; returns, per op, whether
        its key was stored just before the op.

        Op ``i`` upserts ``keys[i] -> values[i]``, or deletes ``keys[i]``
        when ``is_delete[i]``.  The result equals the per-op loop of
        ``tests/write_oracles.py``: the same pools, free lists and set of
        moved version stamps.  The stream runs in rounds
        (:meth:`_write_round`) that group ops by target big leaf; the
        first may take the caller's ``nodes``, which must come from this
        tree as it stands.  Routing keys rise to cover each leaf's
        largest fresh key, as per-op inserts raise them, even when a
        later op deletes it.
        """
        try:
            bk = np.asarray(keys, dtype=self.spec.dtype)
        except OverflowError:
            raise ValueError(
                "key outside the valid (non-sentinel) domain") from None
        bv = np.asarray(values, dtype=self.spec.dtype)
        n = len(bk)
        dele = (np.zeros(n, dtype=bool) if is_delete is None
                else np.asarray(is_delete, dtype=bool))
        if n == 0:
            return dele
        up = ~dele
        if up.any() and int(bk[up].max()) >= self.spec.max_value:
            raise ValueError("key outside the valid (non-sentinel) domain")
        if n == 1:
            return self._write_one(bk, bv, dele, nodes)
        nodes = (self.descend_batch(bk)[0] if nodes is None
                 else np.asarray(nodes, dtype=np.int64))
        # presence before each op: the previous op on its key decides,
        # the tree decides for the key's first op
        by_key = np.argsort(bk, kind="stable")
        sk = bk[by_key]
        first = np.r_[True, sk[1:] != sk[:-1]]
        before = np.empty(n, dtype=bool)
        before[by_key] = np.where(first, self._stored_in(nodes[by_key], sk),
                                  np.r_[False, up[by_key][:-1]])
        delta = (up & ~before).astype(np.int64) - (dele & before)
        todo = np.arange(n)
        while True:
            done = self._write_round(nodes, bk[todo], bv[todo], dele[todo],
                                     delta[todo])
            todo = todo[done:]
            if not len(todo):
                return before
            nodes = self.descend_batch(bk[todo])[0]

    def _write_one(self, bk: np.ndarray, bv: np.ndarray, dele: np.ndarray,
                   nodes: Optional[np.ndarray]) -> np.ndarray:
        """A one-op stream (the public :meth:`insert` / :meth:`delete`):
        a scalar descent, then one row write in place, or a round of
        its own when the op splits or empties its leaf."""
        key, delete = bk[0], bool(dele[0])
        node = (self._descend(int(key), instrument=False)[0]
                if nodes is None else int(nodes[0]))
        lv = self.leaves
        size = int(lv.size[node])
        pos = int(np.searchsorted(lv.keys[node, :size], key))
        present = np.array([pos < size and lv.keys[node, pos] == key])
        d = int(not delete and not present[0]) - int(delete and present[0])
        if not d:
            if not delete:
                self._row_write(node, key, bv[0], False)
                lv.version[node] += 1
        elif 1 <= int(self.leaf_occupancy(node)) + d <= lv.capacity_pairs:
            self._row_write(node, key, bv[0], delete)
            self._refresh_last_level_keys(node)
            self.num_tuples += d
            if d > 0 and key == self.last.keys[node, self.last.size[node] - 1]:
                self._raise_routing(np.array([node]), bk)
        else:
            self._write_round(np.array([node]), bk, bv, dele, np.array([d]))
        return present

    def _write_round(self, nodes: np.ndarray, bk: np.ndarray,
                     bv: np.ndarray, dele: np.ndarray,
                     delta: np.ndarray) -> int:
        """Apply a prefix of the op stream whose ops all target the
        leaves ``nodes`` hold now; returns its length.

        Groups that keep their leaf within ``[1, capacity]`` merge in one
        pass (:meth:`_merge_rows`).  A group that overflows splits its
        leaf at the per-op split point, and one pass per level links the
        new nodes into their parents (:meth:`_link_level`); a group that
        empties its leaf unlinks it (:meth:`_unlink_leaf`).  The prefix
        ends after the first op that empties a leaf (its key range
        passes to a neighbour), before the next op on a leaf that split,
        and before a second op whose leaf split would split an inner
        node, so new nodes are allocated in op order.
        """
        cap = self.leaves.capacity_pairs
        by_leaf = np.argsort(nodes, kind="stable")
        sn, d = nodes[by_leaf], delta[by_leaf]
        run = np.cumsum(np.diff(sn, prepend=-1) != 0) - 1
        starts = np.flatnonzero(np.diff(run, prepend=-1))
        csum = np.cumsum(d)
        # each op's leaf occupancy after the op
        occ = (self.leaf_occupancy(sn[starts])
               - (csum - d)[starts])[run] + csum
        end = int(np.min(by_leaf[occ < 1], initial=len(bk) - 1)) + 1
        over = np.flatnonzero(occ > cap)
        split = over[np.diff(run[over], prepend=-1) != 0]
        after = split[split + 1 < len(run)] + 1
        after = after[run[after] == run[after - 1]]
        end = int(np.min(by_leaf[after], initial=end))
        at = np.sort(by_leaf[split])
        at = at[at < end]
        if len(at) > 1:
            # each split's parent size when it links in, in op order
            parent = self.last.parent[nodes[at]]
            rank = np.tril(parent[:, None] == parent, -1).sum(axis=1)
            full = self.upper.size[parent] + rank >= self.fanout
            hits = np.flatnonzero(full)
            if len(hits):
                later = np.flatnonzero(full | (parent == parent[hits[0]]))
                end = int(np.min(at[later[later > hits[0]]], initial=end))
        mine = by_leaf < end
        by_leaf, sn, d, occ = by_leaf[mine], sn[mine], d[mine], occ[mine]
        ks, vs, ds = bk[by_leaf], bv[by_leaf], dele[by_leaf]
        new_run = np.diff(sn, prepend=-1) != 0
        run = np.cumsum(new_run) - 1
        starts = np.flatnonzero(new_run)
        stops = np.r_[starts[1:], len(sn)]
        leaf = sn[starts]

        def per_run(mask):
            return np.bincount(run, weights=mask, minlength=len(leaf)) > 0

        edge = per_run((occ > cap) | (occ < 1))
        moved = per_run(d != 0)
        calm = ~edge[run]
        if calm.any():
            self._merge_rows(sn[calm], ks[calm], vs[calm], ds[calm], d[calm])
        self.leaves.version[leaf[per_run(~ds) & ~moved]] += 1
        # leaves that split or empty: row writes in op order, the split
        # moving the upper half of the full leaf's pairs to a new leaf
        hold, links, gone = sn.copy(), [], _NIL
        for g in sorted(np.flatnonzero(edge).tolist(),
                        key=lambda g: by_leaf[stops[g] - 1]):
            node, a, b = int(leaf[g]), starts[g], stops[g] - 1
            for i in range(a, b):
                self._row_write(node, ks[i], vs[i], ds[i])
            if occ[b] < 1:
                self._row_write(node, ks[b], vs[b], True)
                gone = node
                continue
            pk, pv = self._leaf_pairs(node)
            new = self._new_last_level_node()
            self._split_rows(node, new, pk, pv)
            nxt = int(self.leaves.next[node])
            for pool in (self.leaves, self.last):
                pool.next[node], pool.prev[new], pool.next[new] = new, node, nxt
            if nxt != _NIL:
                self.leaves.prev[nxt] = new
            split_key = pk[len(pk) // 2 - 1]
            hold[a: b + 1][ks[a: b + 1] > split_key] = new
            self._row_write(int(hold[b]), ks[b], vs[b], False)
            links.append((node, int(split_key), new))
        self._refresh_last_level_range(
            np.r_[leaf[moved], [new for *_, new in links]].astype(np.int64))
        self.num_tuples += int(d.sum())
        level = 0
        while links:
            links = self._link_level(level, links)
            level += 1
        fresh = d > 0
        if fresh.any():
            self._raise_routing(hold[fresh], ks[fresh])
        if gone != _NIL:
            self._unlink_leaf(gone)
        return end

    def _link_level(self, level: int, links: list) -> list:
        """Link each ``(left, split_key, right)`` split of ``level``
        into the left node's parent, in op order: the right node goes in
        after the left one, which takes ``split_key`` while the right
        one keeps the old routing key.  A full parent first splits in
        half; a split root grows a new one over both halves.  Returns
        the parent splits: the next level's links."""
        up, pool = self.upper, self._pool(level)
        half = self.fanout // 2
        out = []
        for left, key, right in links:
            parent = int(pool.parent[left])
            if parent == _NIL:
                root = self.root = up.allocate()
                up.refs[root, :2] = (left, right)
                up.keys[root, 0] = key
                up.keys[root, 1] = pool.keys[right, pool.size[right] - 1]
                up.size[root] = 2
                up.refresh_index(root)
                pool.parent[[left, right]] = root
                self.height += 1
                continue
            if up.size[parent] == self.fanout:
                new = up.allocate()
                for rows, pad in ((up.keys, self.spec.max_value),
                                  (up.refs, _NIL)):
                    rows[new, :half] = rows[parent, half:]
                    rows[parent, half:] = pad
                up.size[[parent, new]] = half
                up.refresh_index(parent)
                up.refresh_index(new)
                pool.parent[up.refs[new, :half]] = new
                nxt = int(up.next[parent])
                up.next[parent], up.prev[new], up.next[new] = new, parent, nxt
                if nxt != _NIL:
                    up.prev[nxt] = new
                out.append((parent, int(up.keys[parent, half - 1]), new))
                parent = int(pool.parent[left])
            size = int(up.size[parent])
            slot = int(np.flatnonzero(up.refs[parent, :size] == left)[0])
            up.keys[parent, slot + 1: size + 1] = up.keys[parent, slot:size]
            up.refs[parent, slot + 2: size + 1] = up.refs[parent,
                                                          slot + 1: size]
            up.keys[parent, slot] = key
            up.refs[parent, slot + 1] = right
            up.size[parent] = size + 1
            up.refresh_index(parent)
            pool.parent[right] = parent
        return out

    def _raise_routing(self, nodes: np.ndarray, keys: np.ndarray) -> None:
        """Raise the routing keys above each big leaf of ``nodes`` to
        cover its key of ``keys`` (the largest per leaf), one level at a
        time.  A key its parent already covers stops there: no routing
        key lies below a routing key of the node it leads to."""
        up, pool = self.upper, self.last
        while len(nodes):
            if len(nodes) > 1:
                nodes, inv = np.unique(nodes, return_inverse=True)
                top = np.zeros(len(nodes), dtype=keys.dtype)
                np.maximum.at(top, inv, keys)
                keys = top
            if pool is up:
                up.refresh_indexes(nodes)
            parent = pool.parent[nodes]
            on = parent != _NIL
            nodes, keys, parent = nodes[on], keys[on], parent[on]
            slot = np.argmax(up.refs[parent] == nodes[:, None], axis=1)
            low = up.keys[parent, slot] < keys
            up.keys[parent[low], slot[low]] = keys[low]
            nodes, keys, pool = parent[low], keys[low], up

    def _unlink_leaf(self, node: int) -> None:
        """Unlink an emptied big leaf (lazy deletion's only collapse):
        level by level, the leaf leaves its parent, a parent that empties
        leaves its own, and a root left with one child gives way to it.
        The sole leaf stays as the (empty) tree skeleton."""
        lv, last, up = self.leaves, self.last, self.upper
        prev, nxt = int(lv.prev[node]), int(lv.next[node])
        if self.height == 1 or prev == nxt == _NIL:
            return
        if prev != _NIL:
            lv.next[prev] = last.next[prev] = nxt
        else:
            self._first_leaf = nxt
        if nxt != _NIL:
            lv.prev[nxt] = last.prev[nxt] = prev
        emptied, child, pool = [], node, last
        while True:
            parent = int(pool.parent[child])
            kept = up.refs[parent] != child
            up.keys[parent] = np.r_[up.keys[parent][kept], self.spec.max_value]
            up.refs[parent] = np.r_[up.refs[parent][kept], _NIL]
            up.size[parent] -= 1
            up.refresh_index(parent)
            if up.size[parent]:
                break
            emptied.append(parent)
            child, pool = parent, up
        while self.height > 1 and up.size[self.root] == 1:
            child = int(up.refs[self.root, 0])
            up.free(self.root)
            self.root = child
            self.height -= 1
            self._pool(self.height - 1).parent[child] = _NIL
        for parent in reversed(emptied):
            up.free(parent)
        lv.free(node)
        last.free(node)

    # ------------------------------------------------------------------
    # bulk build

    def bulk_build(self, keys: Sequence[int], values: Sequence[int],
                   fill: float = 1.0) -> None:
        """Rebuild the tree from scratch over (key, value) pairs.

        ``fill`` controls big-leaf occupancy (1.0 = packed full); update
        benchmarks build at ~0.7 so inserts find room, as a tree grown
        by random insertion would.  Inner levels are stacked bottom-up —
        the standard bulk-loading approach — each level in one
        whole-array pass.  The result is the tree a node-at-a-time build
        leaves (``tests/build_oracles.py``): leaf ``i`` is last-level
        node ``i``, upper nodes are numbered level by level, bottom up
        and left to right, and every node carries the pool stamps of
        one ``allocate`` and one ``refresh_index``.
        """
        # explicit dtype: mixed-magnitude Python ints would otherwise
        # promote to float64 and lose precision beyond 2**53
        keys = np.asarray(keys, dtype=self.spec.dtype)
        values = np.asarray(values, dtype=self.spec.dtype)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be 1-D arrays of equal length")
        if len(keys) == 0:
            raise ValueError("cannot bulk build from zero tuples")
        if int(keys.max()) >= self.spec.max_value:
            raise ValueError("keys must be strictly below the sentinel value")
        keys, values = sorted_pairs(keys, values)

        if not 0.05 <= fill <= 1.0:
            raise ValueError("fill factor must be in [0.05, 1.0]")
        self.upper = _InnerPool(self.spec)
        self.last = _InnerPool(self.spec)
        self.leaves = self._make_leaf_pool()
        n = self.num_tuples = len(keys)

        # leaves: ``cap`` pairs each as a packed prefix, the last leaf
        # taking the remainder
        cap = max(1, int(self.leaves.capacity_pairs * fill))
        nodes = self.last.append(-(-n // cap))
        lv = self.leaves
        lv.append(nodes.stop)
        full = nodes.stop - 1
        lv.keys[:full, :cap] = keys[: full * cap].reshape(full, cap)
        lv.values[:full, :cap] = values[: full * cap].reshape(full, cap)
        lv.keys[full, : n - full * cap] = keys[full * cap:]
        lv.values[full, : n - full * cap] = values[full * cap:]
        lv.size[:full] = cap
        lv.size[full] = n - full * cap
        _link(lv.prev, lv.next, nodes)
        _link(self.last.prev, self.last.next, nodes)
        self._refresh_last_level_range(nodes)
        self._first_leaf = 0

        # upper levels: node ``j`` of a level takes children
        # ``[j*F, (j+1)*F)`` of the level below
        fanout = self.fanout
        children = np.arange(nodes.stop, dtype=np.int64)
        maxes = keys[np.minimum((children + 1) * cap, n) - 1]
        pool_below = self.last
        height = 1
        while len(children) > 1:
            c = len(children)
            level = self.upper.append(-(-c // fanout))
            m = level.stop - level.start
            self.upper.refs[level].reshape(-1)[:c] = children
            self.upper.keys[level].reshape(-1)[:c] = maxes
            self.upper.size[level] = np.minimum(
                fanout, c - fanout * np.arange(m, dtype=np.int64)
            )
            pool_below.parent[children] = level.start + np.arange(c) // fanout
            self.upper.refresh_indexes(level)
            _link(self.upper.prev, self.upper.next, level)
            maxes = maxes[np.minimum(np.arange(1, m + 1) * fanout, c) - 1]
            children = np.arange(level.start, level.stop, dtype=np.int64)
            pool_below = self.upper
            height += 1
        self.root = int(children[0])
        self.height = height
        self.i_segment = None
        self.l_segment = None
        self._ensure_segments()

    # ------------------------------------------------------------------
    # iteration / invariants

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:
        return (
            f"RegularCpuBPlusTree(n={self.num_tuples}, "
            f"height={self.height}, leaves={self.leaves.count}, "
            f"bits={self.spec.bits})"
        )

    def check_invariants(self) -> None:
        """Verify structural invariants; raises AssertionError on damage.

        Checked: leaf chain is globally sorted, every leaf's keys are
        sorted, parent routing keys bound child maxima, sizes match the
        sentinel padding (leaves and inner nodes alike), and item count
        equals ``num_tuples``.  Together these make every node's device
        image non-decreasing, which the GPU kernel's lower-bound node
        search relies on.
        """
        count, prev = 0, -1
        for node in self.leaf_chain().tolist():
            keys = self._check_leaf(node)
            if len(keys):
                assert int(keys[0]) > prev and np.all(keys[1:] > keys[:-1]), (
                    "leaf chain out of order")
                prev = int(keys[-1])
            count += len(keys)
        assert count == self.num_tuples, (
            f"item count {count} != num_tuples {self.num_tuples}"
        )
        self._check_subtree(self.height - 1, self.root)

    def _check_leaf(self, node: int) -> np.ndarray:
        """Check one big leaf's layout; returns its stored keys."""
        size = int(self.leaves.size[node])
        assert np.all(self.leaves.keys[node, size:] == self.spec.max_value), (
            "leaf padding damaged")
        return self.leaves.keys[node, :size]

    def _check_inner_padding(self, pool: _InnerPool, node: int) -> None:
        size = int(pool.size[node])
        assert np.all(pool.keys[node, size:] == self.spec.max_value), (
            "inner-node padding damaged"
        )

    def _check_subtree(self, level: int, node: int) -> int:
        """Recursively validate routing keys; returns the subtree max."""
        if level == 0:
            self._check_inner_padding(self.last, node)
            keys = self.last.keys[node, : max(1, int(self.last.size[node]))]
            assert np.all(keys[1:] >= keys[:-1]), (
                "last-level routing keys out of order"
            )
            size = int(self.leaves.size[node])
            if size == 0:
                return 0
            return int(self.leaves.keys[node, size - 1])
        size = int(self.upper.size[node])
        assert size >= 1, "empty upper node left in tree"
        self._check_inner_padding(self.upper, node)
        prev_bound = -1
        sub_max = 0
        for s in range(size):
            child = int(self.upper.refs[node, s])
            bound = int(self.upper.keys[node, s])
            assert bound > prev_bound, "routing keys out of order"
            child_max = self._check_subtree(level - 1, child)
            assert child_max <= bound, "routing key below child max"
            assert int(self._pool(level - 1).parent[child]) == node, (
                "parent pointer broken"
            )
            prev_bound = bound
            sub_max = child_max
        return sub_max
