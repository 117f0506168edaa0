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

Updates: full insert/delete support with big-leaf and inner-node splits.
Underfull nodes after deletion are collapsed only when empty (lazy
deletion) — the paper's batch-update workloads are insert/modify
dominated and never rebalance eagerly either (section 5.6 resolves >99%
of updates inside a big leaf).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.contents import SortedContents
from repro.cpu.node_search import (
    NodeSearchAlgorithm,
    leaf_hit,
    leaf_line_costs,
    probe_leaf_slots,
    search_costs,
    search_leaf_line,
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

    def _descend(self, key: int, instrument: bool) -> Tuple[int, int, list]:
        """Walk to the last-level node; returns (node, leaf_line, path).

        ``path`` is [(level, node, slot), ...] from the root down,
        recorded for key-maintenance on insert.
        """
        counters = self.mem.counters if (instrument and self.mem) else None
        node = self.root
        path = []
        for level in range(self.height - 1, 0, -1):
            slot = self._search_inner(self.upper, node, key, counters)
            if instrument:
                self._touch_inner(level, node, slot // self.spec.keys_per_line)
            path.append((level, node, slot))
            node = int(self.upper.refs[node, slot])
        slot = self._search_inner(self.last, node, key, counters)
        if instrument:
            self._touch_inner(0, node, slot // self.spec.keys_per_line)
        path.append((0, node, slot))
        return node, slot, path

    def lookup(self, key: int, instrument: bool = True) -> Optional[int]:
        """Point query; returns the value or None."""
        key = int(key)
        node, line, _ = self._descend(key, instrument)
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

    def _walk(self, q: np.ndarray) -> Iterator[
        Tuple[int, np.ndarray, np.ndarray, np.ndarray]
    ]:
        """Vectorised descent of ``q`` (in the key dtype), root first.

        Yields ``(level, node, below, slot)`` per inner level: the node
        each query searches there, its keys below the query and the
        child slot taken — the batch form of :meth:`_search_inner`.  At
        level 0 ``node`` is the last-level node and ``slot`` the big-leaf
        line.  Every batch descent of the tree is built on this walk.
        """
        node = np.full(len(q), self.root, dtype=np.int64)
        for level in range(self.height - 1, -1, -1):
            pool = self._pool(level)
            below = np.sum(pool.keys[node] < q[:, None], axis=1)
            slot = np.minimum(below, np.maximum(pool.size[node] - 1, 0))
            yield level, node, below, slot
            if level:
                node = pool.refs[node, slot]

    def _leaf_rows(self, node: np.ndarray, line: np.ndarray) -> np.ndarray:
        """The pairs' keys of big-leaf line ``line`` of each ``node``."""
        p = self.spec.leaf_pairs_per_line
        return self.leaves.keys[node[:, None], line[:, None] * p + np.arange(p)]

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
        for level, node, below, slot in self._walk(q):
            self._charge_inner(counters, below)
            cols += self._inner_lines(level, node, slot // kpl)
        rows = self._leaf_rows(node, slot)
        cmp, ops = leaf_line_costs(
            self.algorithm, self.spec.leaf_pairs_per_line,
            np.sum(rows < q[:, None], axis=1),
        )
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
        p = self.spec.leaf_pairs_per_line
        pos = np.sum(self._leaf_rows(node, line) < q[:, None], axis=1)
        slots = node * self.leaves.capacity_pairs + line * p + np.minimum(pos, p - 1)
        return probe_leaf_slots(
            self.leaves.keys.reshape(-1), self.leaves.values.reshape(-1),
            slots, q, self.spec.max_value,
        )

    def descend_batch(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised inner descent; returns ``(last_node, leaf_line)``.

        The uninstrumented batch twin of :meth:`_descend` — used by the
        batch updater to classify a whole update group at once.
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        for _level, node, _below, line in self._walk(q):
            pass
        return node, line.astype(np.int64)

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
        node, _line, _ = self._descend(int(lo), instrument=True)
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
        """Stored pairs per big leaf (vectorised).

        For the compact layout this is the leaf ``size``; the gapped
        subclass overrides it with the live-pair count so split
        projection counts real entries, not interleaved gaps.
        """
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

    def _refresh_last_level_range(self, nodes: slice) -> None:
        """:meth:`_refresh_last_level_keys` of every node in ``nodes``
        at once.  The scalar form stays for one-node writes: over one
        node this one takes 34 us against its 9 us (2-core x86-64,
        numpy 2.4), and a 6 s ``mixed_rw_drill`` run makes about 11,000
        such refreshes."""
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

    def _node_max(self, level: int, node: int) -> int:
        """Actual maximum key stored beneath a node."""
        if level == 0:
            size = int(self.leaves.size[node])
            if size == 0:
                return 0
            return int(self.leaves.keys[node, size - 1])
        size = int(self.upper.size[node])
        child = int(self.upper.refs[node, size - 1])
        return self._node_max(level - 1, child)

    def _set_parent_key(self, level: int, node: int, slot: int, key: int) -> None:
        pool = self._pool(level)
        pool.keys[node, slot] = key
        pool.refresh_index(node)

    # ------------------------------------------------------------------
    # insert

    def insert(self, key: int, value: int) -> bool:
        """Insert or overwrite; returns True if the key was new."""
        key = int(key)
        if not 0 <= key < self.spec.max_value:
            raise ValueError("key outside the valid (non-sentinel) domain")
        node, _line, path = self._descend(key, instrument=False)
        leaf_keys = self.leaves.keys[node]
        size = int(self.leaves.size[node])
        # NB: searchsorted needs the scalar in the array's dtype — a
        # plain Python int above 2**53 would be compared as float64 and
        # land in the wrong slot
        typed_key = self.spec.dtype(key)
        pos = int(np.searchsorted(leaf_keys[:size], typed_key))
        if pos < size and int(leaf_keys[pos]) == key:
            self.leaves.values[node, pos] = value
            self.leaves.version[node] += 1
            return False
        if size >= self.leaves.capacity_pairs:
            self._split_leaf(node, path)
            # re-descend: the split may have moved the target range
            node, _line, path = self._descend(key, instrument=False)
            leaf_keys = self.leaves.keys[node]
            size = int(self.leaves.size[node])
            pos = int(np.searchsorted(leaf_keys[:size], typed_key))
        leaf_keys[pos + 1: size + 1] = leaf_keys[pos:size]
        self.leaves.values[node, pos + 1: size + 1] = self.leaves.values[
            node, pos:size
        ]
        leaf_keys[pos] = key
        self.leaves.values[node, pos] = value
        self.leaves.size[node] = size + 1
        self._refresh_last_level_keys(node)
        self._bubble_up_max(path, key)
        self.num_tuples += 1
        return True

    def _bubble_up_max(self, path: list, key: int) -> None:
        """Raise routing keys along the descend path to cover ``key``."""
        for level, node, slot in reversed(path[:-1]):
            if int(self.upper.keys[node, slot]) < key:
                self._set_parent_key(level, node, slot, key)

    def _raise_parent_keys(self, node: int, new_max: int) -> None:
        """Raise ancestor routing keys to cover ``new_max``.

        Path-free twin of :meth:`_bubble_up_max` for
        :meth:`apply_batch`: walks the parent fragment upward from a
        last-level node, locating the child slot the way
        ``_remove_child`` does.
        """
        child = node
        level = 0
        while True:
            parent = int(self._pool(level).parent[child])
            if parent == _NIL:
                return
            psize = int(self.upper.size[parent])
            for s in range(psize):
                if int(self.upper.refs[parent, s]) == child:
                    if int(self.upper.keys[parent, s]) < new_max:
                        self._set_parent_key(level + 1, parent, s, new_max)
                    break
            child = parent
            level += 1

    def _write_leaf_pairs(
        self, node: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Overwrite a big leaf with sorted pairs (compact layout).

        The layout hook of :meth:`apply_batch`: writes the pairs as a
        packed prefix with sentinel padding — exactly the state a
        sequence of single inserts leaves behind.  The gapped subclass
        re-spreads the pairs with interleaved gaps instead.
        """
        m = len(keys)
        if m > self.leaves.capacity_pairs:
            raise ValueError("leaf overflow in _write_leaf_pairs")
        self.leaves.keys[node, :m] = keys
        self.leaves.values[node, :m] = values
        self.leaves.keys[node, m:] = self.spec.max_value
        self.leaves.values[node, m:] = 0
        self.leaves.size[node] = m
        self._refresh_last_level_keys(node)

    def _leaf_pairs(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of one leaf's stored (keys, values), gaps excluded."""
        size = int(self.leaves.size[node])
        return (
            self.leaves.keys[node, :size].copy(),
            self.leaves.values[node, :size].copy(),
        )

    def _stored_in(self, nodes: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Whether each key of ``q`` is stored in its big leaf ``nodes``
        (the leaf line a lookup would probe; gaps duplicate real keys)."""
        below = np.sum(self.last.keys[nodes] < q[:, None], axis=1)
        line = np.minimum(below, np.maximum(self.last.size[nodes] - 1, 0))
        return np.any(self._leaf_rows(nodes, line) == q[:, None], axis=1)

    def apply_batch(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        is_delete: Optional[Sequence[bool]] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> int:
        """Apply one op stream in array order; returns the number of ops
        run one at a time through :meth:`insert` / :meth:`delete`.

        Op ``i`` upserts ``keys[i] -> values[i]``, or deletes ``keys[i]``
        when ``is_delete[i]`` (its value is ignored).  The final state
        equals calling :meth:`insert` / :meth:`delete` per op in array
        order.  The ops are grouped by target big leaf (one
        :meth:`descend_batch`, or the caller's ``nodes``, which must come
        from this tree as it stands).  A group of two or more ops whose
        running occupancy stays within ``[1, capacity]`` is merged into
        its leaf with one rewrite (:meth:`_leaf_pairs` /
        :meth:`_write_leaf_pairs`), which allocates nothing.  Every other
        op runs scalar, in op order: lone ops, the ops of groups that
        split or empty their leaf, and every group with an op at or past
        the first op that empties a leaf (removing a leaf hands its key
        range to a neighbour, so later targets no longer hold).  Rewrites
        raise routing keys to the group's largest fresh key, as the
        per-op inserts would, even when a later op deletes it.
        """
        bk = np.asarray(keys, dtype=self.spec.dtype)
        bv = np.asarray(values, dtype=self.spec.dtype)
        n = len(bk)
        if n == 0:
            return 0
        dele = (np.zeros(n, dtype=bool) if is_delete is None
                else np.asarray(is_delete, dtype=bool))
        up = ~dele
        if up.any() and int(bk[up].max()) >= self.spec.max_value:
            raise ValueError("key outside the valid (non-sentinel) domain")
        nodes = (self.descend_batch(bk)[0] if nodes is None
                 else np.asarray(nodes, dtype=np.int64))
        by_leaf = np.argsort(nodes, kind="stable")
        sn = nodes[by_leaf]
        new_run = np.diff(sn, prepend=-1) != 0
        starts = np.flatnonzero(new_run)
        rewrite = np.zeros(n, dtype=bool)
        if len(starts) < n:  # some leaf gets two or more ops
            # presence before each op: the previous op on its key
            # decides, the tree decides for the key's first op
            by_key = np.argsort(bk, kind="stable")
            sk = bk[by_key]
            first = np.concatenate(([True], sk[1:] != sk[:-1]))
            before = np.empty(n, dtype=bool)
            before[by_key] = np.where(
                first, self._stored_in(nodes[by_key], sk),
                np.concatenate(([False], up[by_key][:-1])),
            )
            delta = (up & ~before).astype(np.int64) - (dele & before)
            # occupancy of each op's leaf after the op, in op order
            run_id = np.cumsum(new_run) - 1
            d_leaf = delta[by_leaf]
            csum = np.cumsum(d_leaf)
            occ = (self.leaf_occupancy(sn[starts])
                   - (csum - d_leaf)[starts])[run_id] + csum
            emptied = by_leaf[occ < 1]
            cut = emptied.min() if len(emptied) else n
            bad = (occ > self.leaves.capacity_pairs) | (by_leaf >= cut)
            size = np.diff(starts, append=n)
            ok = (size >= 2) & (np.bincount(run_id, weights=bad,
                                            minlength=len(starts)) == 0)
            rewrite[by_leaf] = ok[run_id]
            for g in np.flatnonzero(ok).tolist():
                ops = by_leaf[starts[g]: starts[g] + size[g]]
                self._rewrite_leaf(int(sn[starts[g]]), bk[ops], bv[ops],
                                   dele[ops], delta[ops])
        scalar = np.flatnonzero(~rewrite)
        for i, k, v in zip(scalar.tolist(), bk[scalar].tolist(),
                           bv[scalar].tolist()):
            if dele[i]:
                self.delete(k)
            else:
                self.insert(k, v)
        return len(scalar)

    def _rewrite_leaf(self, node: int, gk: np.ndarray, gv: np.ndarray,
                      gdel: np.ndarray, delta: np.ndarray) -> None:
        """Merge one leaf's ops (in op order) into it with one write.

        The last op on each key decides it.  When the ops change the
        key set the leaf is rewritten (refreshing its last-level node)
        and routing keys rise to the largest fresh key; otherwise only
        overwritten values change, as with per-op overwrites, which
        leave the inner nodes untouched.
        """
        rev_first = np.unique(gk[::-1], return_index=True)[1]
        last = len(gk) - 1 - rev_first
        uk, uv, kept = gk[last], gv[last], ~gdel[last]
        if delta.any():
            ek, ev = self._leaf_pairs(node)
            old = ~np.isin(ek, uk, assume_unique=True)
            mk = np.concatenate([ek[old], uk[kept]])
            mv = np.concatenate([ev[old], uv[kept]])
            o = np.argsort(mk, kind="stable")
            self._write_leaf_pairs(node, mk[o], mv[o])
            fresh = gk[delta > 0]
            if len(fresh):
                self._raise_parent_keys(node, int(fresh.max()))
            self.num_tuples += int(delta.sum())
        elif kept.any():
            # every upserted key is stored; a gapped leaf repeats a
            # pair in the gaps before it, so overwrite the whole run
            row = self.leaves.keys[node, : int(self.leaves.size[node])]
            lo = np.searchsorted(row, uk[kept])
            hi = np.searchsorted(row, uk[kept], side="right")
            self.leaves.values[node, _multi_arange(lo, hi - lo)] = np.repeat(
                uv[kept], hi - lo)
            self.leaves.version[node] += 1

    def _split_leaf(self, node: int, path: list) -> None:
        """Split a full big leaf (and its last-level inner) in half."""
        new_node = self._new_last_level_node()
        cap = self.leaves.capacity_pairs
        half = cap // 2
        self.leaves.keys[new_node, : cap - half] = self.leaves.keys[node, half:]
        self.leaves.values[new_node, : cap - half] = self.leaves.values[node, half:]
        self.leaves.keys[node, half:] = self.spec.max_value
        self.leaves.values[node, half:] = 0
        self.leaves.size[new_node] = cap - half
        self.leaves.size[node] = half
        # leaf chain
        nxt = int(self.leaves.next[node])
        self.leaves.next[node] = new_node
        self.leaves.prev[new_node] = node
        self.leaves.next[new_node] = nxt
        if nxt != _NIL:
            self.leaves.prev[nxt] = new_node
        self.last.next[node] = new_node
        self.last.prev[new_node] = node
        self.last.next[new_node] = nxt
        self._refresh_last_level_keys(node)
        self._refresh_last_level_keys(new_node)
        split_key = int(self.leaves.keys[node, half - 1])
        self._insert_into_parent(0, node, split_key, new_node, path)

    def _insert_into_parent(
        self, level: int, left: int, split_key: int, right: int, path: list
    ) -> None:
        """Link ``right`` as the sibling after ``left`` at ``level+1``."""
        parent_entry = None
        for entry in path:
            if entry[0] == level + 1 and (
                int(self.upper.refs[entry[1], entry[2]]) == left
            ):
                parent_entry = entry
                break
        if parent_entry is None and level + 1 > self.height - 1:
            # splitting the root: grow the tree by one level
            new_root = self.upper.allocate()
            self.upper.size[new_root] = 2
            self.upper.refs[new_root, 0] = left
            self.upper.refs[new_root, 1] = right
            self.upper.keys[new_root, 0] = split_key
            right_max = self._node_max(level, right)
            self.upper.keys[new_root, 1] = right_max
            self.upper.refresh_index(new_root)
            self._pool(level).parent[left] = new_root
            self._pool(level).parent[right] = new_root
            self.root = new_root
            self.height += 1
            return
        if parent_entry is None:
            # path did not record the parent (can happen after cascades):
            # find it via the parent fragment
            parent = int(self._pool(level).parent[left])
            psize = int(self.upper.size[parent])
            slot = None
            for s in range(psize):
                if int(self.upper.refs[parent, s]) == left:
                    slot = s
                    break
            if slot is None:
                raise AssertionError("parent fragment does not reference child")
            parent_entry = (level + 1, parent, slot)
        _plevel, parent, slot = parent_entry
        psize = int(self.upper.size[parent])
        if psize >= self.fanout:
            self._split_upper(level + 1, parent, path)
            # parent changed; retry through the fragment pointers
            self._insert_into_parent(level, left, split_key, right, [])
            return
        # shift keys/refs right of slot
        self.upper.keys[parent, slot + 2: psize + 1] = self.upper.keys[
            parent, slot + 1: psize
        ]
        self.upper.refs[parent, slot + 2: psize + 1] = self.upper.refs[
            parent, slot + 1: psize
        ]
        # the pre-split routing key bounded the whole node, which is now
        # exactly the upper bound of the right half
        right_max = int(self.upper.keys[parent, slot])
        self.upper.keys[parent, slot] = split_key
        self.upper.keys[parent, slot + 1] = right_max
        self.upper.refs[parent, slot + 1] = right
        self.upper.size[parent] = psize + 1
        self.upper.refresh_index(parent)
        self._pool(level).parent[right] = parent

    def _split_upper(self, level: int, node: int, path: list) -> None:
        """Split a full upper inner node in half."""
        new_node = self.upper.allocate()
        half = self.fanout // 2
        rest = self.fanout - half
        self.upper.keys[new_node, :rest] = self.upper.keys[node, half:]
        self.upper.refs[new_node, :rest] = self.upper.refs[node, half:]
        self.upper.keys[node, half:] = self.spec.max_value
        self.upper.refs[node, half:] = _NIL
        self.upper.size[new_node] = rest
        self.upper.size[node] = half
        self.upper.refresh_index(node)
        self.upper.refresh_index(new_node)
        child_pool = self._pool(level - 1)
        for s in range(rest):
            child_pool.parent[int(self.upper.refs[new_node, s])] = new_node
        # sibling chain
        nxt = int(self.upper.next[node])
        self.upper.next[node] = new_node
        self.upper.prev[new_node] = node
        self.upper.next[new_node] = nxt
        if nxt != _NIL:
            self.upper.prev[nxt] = new_node
        split_key = int(self.upper.keys[node, half - 1])
        if node == self.root:
            new_root = self.upper.allocate()
            self.upper.size[new_root] = 2
            self.upper.refs[new_root, 0] = node
            self.upper.refs[new_root, 1] = new_node
            self.upper.keys[new_root, 0] = split_key
            self.upper.keys[new_root, 1] = int(self.upper.keys[new_node, rest - 1])
            self.upper.refresh_index(new_root)
            self.upper.parent[node] = new_root
            self.upper.parent[new_node] = new_root
            self.root = new_root
            self.height += 1
        else:
            self._insert_into_parent(level, node, split_key, new_node, path)

    # ------------------------------------------------------------------
    # delete

    def delete(self, key: int) -> bool:
        """Remove a key; returns True if it was present."""
        key = int(key)
        node, _line, path = self._descend(key, instrument=False)
        size = int(self.leaves.size[node])
        pos = int(np.searchsorted(self.leaves.keys[node, :size],
                                  self.spec.dtype(key)))
        if pos >= size or int(self.leaves.keys[node, pos]) != key:
            return False
        self.leaves.keys[node, pos: size - 1] = self.leaves.keys[node, pos + 1: size]
        self.leaves.values[node, pos: size - 1] = self.leaves.values[
            node, pos + 1: size
        ]
        self.leaves.keys[node, size - 1] = self.spec.max_value
        self.leaves.values[node, size - 1] = 0
        self.leaves.size[node] = size - 1
        self._refresh_last_level_keys(node)
        self.num_tuples -= 1
        if size - 1 == 0 and self.height > 1:
            self._remove_empty_leaf(node, path)
        return True

    def _remove_empty_leaf(self, node: int, path: list) -> None:
        """Unlink an empty big leaf (lazy deletion's only collapse)."""
        prev, nxt = int(self.leaves.prev[node]), int(self.leaves.next[node])
        if prev == _NIL and nxt == _NIL:
            # the only leaf: keep it as the (empty) tree skeleton
            return
        if prev != _NIL:
            self.leaves.next[prev] = nxt
            self.last.next[prev] = nxt
        else:
            self._first_leaf = nxt
        if nxt != _NIL:
            self.leaves.prev[nxt] = prev
            self.last.prev[nxt] = prev
        self._remove_child(1, int(self.last.parent[node]), node)
        self.leaves.free(node)
        self.last.free(node)

    def _remove_child(self, level: int, parent: int, child: int) -> None:
        if parent == _NIL:
            return
        psize = int(self.upper.size[parent])
        slot = None
        for s in range(psize):
            if int(self.upper.refs[parent, s]) == child:
                slot = s
                break
        if slot is None:
            return
        self.upper.keys[parent, slot: psize - 1] = self.upper.keys[
            parent, slot + 1: psize
        ]
        self.upper.refs[parent, slot: psize - 1] = self.upper.refs[
            parent, slot + 1: psize
        ]
        self.upper.keys[parent, psize - 1] = self.spec.max_value
        self.upper.refs[parent, psize - 1] = _NIL
        self.upper.size[parent] = psize - 1
        self.upper.refresh_index(parent)
        if psize - 1 == 0:
            grand = int(self.upper.parent[parent])
            self._remove_child(level + 1, grand, parent)
            self.upper.free(parent)
        elif parent == self.root and psize - 1 == 1 and self.height > 1:
            self._collapse_root()

    def _collapse_root(self) -> None:
        """Shrink the tree while the root has a single child."""
        while self.height > 1 and int(self.upper.size[self.root]) == 1:
            child = int(self.upper.refs[self.root, 0])
            self.upper.free(self.root)
            self.root = child
            self.height -= 1
            pool = self.last if self.height == 1 else self.upper
            pool.parent[child] = _NIL

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

    def __contains__(self, key: int) -> bool:
        return self.lookup(key, instrument=False) is not None

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
        count = 0
        prev_key = -1
        node = self._first_leaf
        while node != _NIL:
            size = int(self.leaves.size[node])
            for i in range(size):
                k = int(self.leaves.keys[node, i])
                assert k > prev_key, "leaf chain out of order"
                prev_key = k
                count += 1
            pad = self.leaves.keys[node, size:]
            assert np.all(pad == self.spec.max_value), "leaf padding damaged"
            node = int(self.leaves.next[node])
        assert count == self.num_tuples, (
            f"item count {count} != num_tuples {self.num_tuples}"
        )
        self._check_subtree(self.height - 1, self.root)

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
