"""The implicit (pointer-free) B+-tree, CPU-optimized variant.

Nodes are arranged breadth-first in flat arrays (paper section 3 /
Fig 2 a-b): every node occupies exactly one cache line, leaves hold
``P_L`` key-value pairs, inner nodes hold one full cache line of keys.
Child locations are computed, never stored, so the j-th child of the
i-th node at a level is node ``i * F_I + j`` of the next level.

Two fanout styles share this implementation:

* the CPU-optimized tree uses all ``keys_per_line`` keys as separators
  for ``keys_per_line + 1`` children (fanout 9 / 17),
* the implicit HB+-tree pins the last key to the maximum value and uses
  ``keys_per_line`` children (fanout 8 / 16) so the GPU kernel can use
  one thread per key without divergence (section 5.2).

Updates rebuild the whole tree — the linear-time price of implicitness
the paper accepts for its search-dominated workloads (section 5.6).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.implicit_levels import ImplicitLevels
from repro.cpu.node_search import (
    NodeSearchAlgorithm,
    leaf_hit,
    search_leaf_line,
)
from repro.descent import probe
from repro.keys import KeySpec, key_spec, sorted_pairs
from repro.memsim.allocator import Segment
from repro.memsim.mainmem import MemorySystem, PageConfig


class ImplicitCpuBPlusTree(ImplicitLevels):
    """A breadth-first-array B+-tree over sorted key/value pairs.

    Parameters
    ----------
    keys, values:
        The tuples to index; sorted internally by key.  Keys must be
        unique and strictly below the key type's maximum value (the
        padding sentinel).
    key_bits:
        64 or 32.
    fanout:
        Children per inner node.  Defaults to the CPU-optimized fanout
        (``keys_per_line + 1``); the hybrid tree passes
        ``keys_per_line``.
    mem:
        Optional :class:`MemorySystem` — when given, instrumented
        lookups charge their node accesses to it.
    page_config:
        Where the I- and L-segments are placed (Fig 7 configurations).
    algorithm:
        Node-search algorithm used by instrumented scalar lookups.
    """

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        key_bits: int = 64,
        fanout: Optional[int] = None,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_HUGE,
        algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.HIERARCHICAL_SIMD,
        segment_prefix: str = "implicit",
    ):
        self.spec: KeySpec = key_spec(key_bits)
        self.fanout = fanout if fanout is not None else self.spec.implicit_cpu_fanout
        if not 2 <= self.fanout <= self.spec.keys_per_line + 1:
            raise ValueError(
                f"fanout must be in [2, {self.spec.keys_per_line + 1}]"
            )
        self.algorithm = algorithm
        self.mem = mem
        self.page_config = page_config
        self._segment_prefix = segment_prefix
        self.i_segment: Optional[Segment] = None
        self.l_segment: Optional[Segment] = None
        self._build(keys, values)

    # ------------------------------------------------------------------
    # construction

    def _build(self, keys, values) -> None:
        # convert with an explicit dtype: plain np.asarray on a Python
        # list mixing values above int64's range promotes to float64
        # and silently loses precision beyond 2**53
        keys = np.asarray(keys, dtype=self.spec.dtype)
        values = np.asarray(values, dtype=self.spec.dtype)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be 1-D arrays of equal length")
        if len(keys) == 0:
            raise ValueError("cannot build a tree over zero tuples")
        if int(keys.max()) >= self.spec.max_value:
            raise ValueError(
                "keys must be strictly below the maximum value "
                "(reserved as the padding sentinel)"
            )
        keys, values = sorted_pairs(keys, values)

        self.num_tuples = len(keys)
        cap = self.spec.leaf_pairs_per_line
        n_leaves = math.ceil(len(keys) / cap)
        sentinel = self.spec.max_value
        leaf_keys = np.full((n_leaves, cap), sentinel, dtype=self.spec.dtype)
        leaf_vals = np.zeros((n_leaves, cap), dtype=self.spec.dtype)
        flat = leaf_keys.reshape(-1)
        flat[: len(keys)] = keys
        leaf_vals.reshape(-1)[: len(values)] = values
        self.leaf_keys = leaf_keys
        self.leaf_values = leaf_vals

        # max real key of each node at the level currently being covered
        child_max = keys[
            np.minimum(np.arange(1, n_leaves + 1) * cap - 1, len(keys) - 1)
        ]
        self.inner_levels: List[np.ndarray] = []
        n_children = n_leaves
        while n_children > 1:
            n_nodes = math.ceil(n_children / self.fanout)
            level = np.full(
                (n_nodes, self.spec.keys_per_line), sentinel, dtype=self.spec.dtype
            )
            # key j of node i = max key in the subtree of child i*F + j
            kpn = min(self.spec.keys_per_line, self.fanout)
            grid = np.full(n_nodes * self.fanout, sentinel,
                           dtype=self.spec.dtype)
            grid[:n_children] = child_max
            level[:, :kpn] = grid.reshape(n_nodes, self.fanout)[:, :kpn]
            if self.fanout == self.spec.keys_per_line:
                # hybrid style (section 5.2): the last key is pinned to
                # the maximum value so every query sets at least one GPU
                # flag.  For the (possibly partially filled) rightmost
                # node the pin goes on its last *real* child, making the
                # rightmost real path a catch-all — overflow queries
                # never route into non-existent nodes.
                level[:, self.fanout - 1] = sentinel
                last_children = n_children - (n_nodes - 1) * self.fanout
                level[n_nodes - 1, last_children - 1] = sentinel
            self.inner_levels.append(level)
            child_max = np.maximum.reduceat(
                child_max, np.arange(0, n_children, self.fanout)
            )
            n_children = n_nodes
        self.inner_levels.reverse()  # root first
        self._allocate_segments()

    # ------------------------------------------------------------------
    # geometry

    @property
    def levels(self) -> List[np.ndarray]:
        return self.inner_levels

    @property
    def num_leaves(self) -> int:
        return self.leaf_keys.shape[0]

    bottom_size = num_leaves

    @property
    def lines_per_query(self) -> int:
        """Cache lines touched per lookup: H + 1 (paper section 4.1)."""
        return self.height + 1

    @property
    def l_segment_bytes(self) -> int:
        return self.num_leaves * self.spec.cache_line

    # ------------------------------------------------------------------
    # search

    def lookup(self, key: int, instrument: bool = True) -> Optional[int]:
        """Point query; returns the value or None if the key is absent."""
        key = int(key)
        leaf = self._descend(key, instrument)
        counters = self.mem.counters if (instrument and self.mem) else None
        if instrument and self.mem is not None and self.l_segment is not None:
            self.mem.touch_line(self.l_segment, leaf)
        row = self.leaf_keys[leaf]
        pos = search_leaf_line(row, key, counters, self.algorithm)
        if counters is not None:
            counters.queries += 1
        if leaf_hit(row, pos, key, self.spec.max_value):
            return int(self.leaf_values[leaf, pos])
        return None

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Vectorised point lookups; absent keys yield the max value.

        Returns an array of values with ``spec.max_value`` marking
        not-found (the sentinel can never be a stored value's key).
        """
        q = np.asarray(queries, dtype=self.spec.dtype)
        node = np.zeros(len(q), dtype=np.int64)
        for level in range(self.height):
            node = self.descend_level(level, node, q)
        return self.probe_leaves(node, q)

    def probe_leaves(self, leaf: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Answer each query from its leaf ``leaf``
        (:func:`~repro.descent.probe`)."""
        return probe(self.leaf_keys, self.leaf_values, leaf, queries,
                     self.spec.max_value)

    def _scan_from_leaf(self, leaf: int, lo: int,
                        hi: int) -> List[Tuple[int, int]]:
        """Vectorised leaf scan shared by :meth:`range_query` and
        :meth:`range_scan_from`.

        The implicit build packs leaves densely (sentinels only pad the
        last leaf), so the flattened key array is a sorted prefix of
        length ``num_tuples`` and two global ``searchsorted`` calls
        bound the whole result.  The touched-leaf set is exactly a
        slot-by-slot walk's: every leaf from ``leaf`` through the leaf
        where that walk's probe terminates (first key ``> hi``, the
        sentinel, or running off the last leaf).
        """
        counters = self.mem.counters if self.mem else None
        cap = self.leaf_keys.shape[1]
        n = self.num_tuples
        flat_keys = self.leaf_keys.reshape(-1)[:n]
        lo_pos = int(np.searchsorted(flat_keys, self.spec.dtype(lo)))
        hi_pos = int(np.searchsorted(flat_keys, self.spec.dtype(hi),
                                     side="right"))
        if hi_pos < n:
            term_leaf = hi_pos // cap
        elif n < self.num_leaves * cap:
            term_leaf = n // cap  # the sentinel probe in the last leaf
        else:
            term_leaf = self.num_leaves - 1  # runs off the packed end
        term_leaf = max(term_leaf, leaf)
        if self.mem is not None and self.l_segment is not None:
            self.mem.touch_lines(
                self.l_segment,
                np.arange(leaf, term_leaf + 1, dtype=np.int64),
            )
        lo_pos = max(lo_pos, leaf * cap)
        k = flat_keys[lo_pos:hi_pos]
        v = self.leaf_values.reshape(-1)[lo_pos:hi_pos]
        results = list(zip(k.tolist(), v.tolist()))
        if counters is not None:
            counters.queries += 1
        return results

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """All (key, value) pairs with ``lo <= key <= hi``, in key order.

        Exploits the sequential leaf arrangement: after locating the
        first leaf, successor leaves are adjacent lines (section 4.1).
        Vectorised — identical results and identical modeled leaf-line
        counters to a slot-by-slot walk of the leaves.
        """
        if lo > hi:
            return []
        leaf = self._descend(int(lo), instrument=True)
        return self._scan_from_leaf(leaf, int(lo), int(hi))

    def range_scan_from(self, leaf: int, lo: int,
                        hi: int) -> List[Tuple[int, int]]:
        """Leaf scan starting at ``leaf`` (no CPU descent).

        The engine scan path locates the start leaf on the GPU and
        finishes here.  Tolerates a start leaf at-or-before the true
        one (earlier leaves contribute nothing).
        """
        if lo > hi:
            return []
        return self._scan_from_leaf(int(leaf), int(lo), int(hi))

    # ------------------------------------------------------------------
    # updates (rebuild — section 5.6)

    def rebuild(self, keys: Sequence[int], values: Sequence[int]) -> None:
        """Replace the indexed data; the whole tree is reconstructed."""
        self._build(keys, values)

    def merge_update(
        self,
        upsert_keys: Sequence[int] = (),
        upsert_values: Sequence[int] = (),
        deletes: Sequence[int] = (),
    ) -> None:
        """Apply a batch of upserts/deletes by linear merge + rebuild.

        The implicit layout cannot be updated in place, but a *sorted*
        batch merges into the existing sorted contents in O(n + m) —
        far cheaper than re-sorting everything, which is how a real
        deployment implements the paper's periodic batch rebuilds.
        """
        up_k = np.asarray(upsert_keys, dtype=self.spec.dtype)
        up_v = np.asarray(upsert_values, dtype=self.spec.dtype)
        del_k = np.asarray(deletes, dtype=self.spec.dtype)
        if up_k.shape != up_v.shape:
            raise ValueError("upsert keys and values must align")
        if len(up_k):
            order = np.argsort(up_k, kind="stable")
            up_k, up_v = up_k[order], up_v[order]
            if np.any(up_k[1:] == up_k[:-1]):
                raise ValueError("duplicate keys within the update batch")

        old_k, old_v = self.stored_items()
        drop = up_k
        if len(del_k):
            drop = np.union1d(drop, del_k) if len(drop) else np.sort(del_k)
        if len(drop):
            keep = ~np.isin(old_k, drop)
            old_k, old_v = old_k[keep], old_v[keep]
        if len(up_k):
            positions = np.searchsorted(old_k, up_k)
            merged_k = np.insert(old_k, positions, up_k)
            merged_v = np.insert(old_v, positions, up_v)
        else:
            merged_k, merged_v = old_k, old_v
        if len(merged_k) == 0:
            raise ValueError("merge would leave the tree empty")
        self._build(merged_k, merged_v)

    def _stored_mask(self) -> np.ndarray:
        """The flattened leaf slots that hold pairs: the sentinel pads
        only the unused slots, and no stored key can equal it."""
        return self.leaf_keys.reshape(-1) != self.spec.max_value

    def stored_items(self) -> Tuple[np.ndarray, np.ndarray]:
        mask = self._stored_mask()
        return (self.leaf_keys.reshape(-1)[mask],
                self.leaf_values.reshape(-1)[mask])

    def stored_keys(self) -> np.ndarray:
        return self.leaf_keys.reshape(-1)[self._stored_mask()]

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:
        return (
            f"ImplicitCpuBPlusTree(n={self.num_tuples}, "
            f"height={self.height}, fanout={self.fanout}, "
            f"bits={self.spec.bits})"
        )

