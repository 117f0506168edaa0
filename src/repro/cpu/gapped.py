"""The gapped-leaf variant of the regular CPU B+-tree (BS-tree style).

BS-tree's data-parallel node layout (PAPERS.md, arXiv:2505.01180) keeps
*interleaved gaps* inside every big leaf so that most inserts are
in-place writes into a pre-allocated gap — no half-leaf shift, no
structural modification, and (on the hybrid tree) no mirror
invalidation beyond the one last-level inner node whose routing line
changed.  This module ports the idea onto the paper's 256-pair big
leaves:

* A **gap** is a free slot that *duplicates the key and value of its
  nearest real entry to the right*, so the leaf array stays
  non-decreasing and every inherited read path — ``lookup``,
  ``lookup_batch``, ``descend_batch``, the GPU mirror's last-level
  routing keys — works unchanged and answers bit-identically to the
  compact layout.  Trailing free slots keep the sentinel (MAX) padding
  the kernels already skip; the invariant is that the rightmost slot
  of any equal-key run inside the extent is the real entry.
* **Insert** binary-searches the slot; if the slot itself is a gap the
  write is in place (zero shift).  Otherwise the run of real entries up
  to the nearest gap shifts by one — a few pairs on average at the
  build fill factor, against half a big leaf for the compact layout.
  Only when a leaf holds no gap at all does the insert fall back to
  the inherited split path, which re-spreads both halves with fresh
  interleaved gaps.
* **Delete** marks the run as gaps backfilled from the right neighbour
  (or truncates the extent at the tail) — again no shift.

The per-insert behaviour is accounted in :class:`GapStats` so the
mixed engine (:mod:`repro.core.mixed`) can price in-place writes,
short shifts and splits separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cpu.btree_regular import (
    _NIL,
    RegularCpuBPlusTree,
    _LeafPool,
    _multi_arange,
)
from repro.obs.stats import Stats


@dataclass
class GapStats(Stats):
    """Accumulated write-path behaviour of a gapped tree."""

    #: inserts resolved by writing straight into a gap (zero shift)
    gap_writes: int = 0
    #: inserts that shifted a short run toward the nearest gap
    shift_writes: int = 0
    #: total pairs moved by those short shifts
    shifted_pairs: int = 0
    #: deletes resolved by gap-marking (never shift)
    gap_deletes: int = 0
    #: leaf splits forced by gap exhaustion
    splits: int = 0
    #: whole-leaf rewrites by the batch scatter path
    leaf_rewrites: int = 0

    exported = ("in_place_fraction",)

    @property
    def in_place_fraction(self) -> float:
        total = self.gap_writes + self.shift_writes
        return self.gap_writes / total if total else 0.0


def _spread_slots(m: int, cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """The layout of ``m`` sorted pairs spread evenly over ``cap``
    slots: for each slot of the extent the pair it holds (a gap holds
    the next real pair's), and the gap mask.  The extent ends on the
    last pair."""
    pos = (np.arange(m, dtype=np.int64) * cap) // m
    src = np.searchsorted(pos, np.arange(pos[-1] + 1, dtype=np.int64))
    gaps = np.ones(len(src), dtype=bool)
    gaps[pos] = False
    return src, gaps


class _GappedLeafPool(_LeafPool):
    """Big leaves with a per-slot gap mask and a live-pair counter."""

    def _grow_to(self, capacity: int) -> None:
        super()._grow_to(capacity)
        self.gap = np.zeros((capacity, self.capacity_pairs), dtype=bool)
        self.live = np.zeros(capacity, dtype=np.int64)

    def _grow(self, capacity: int) -> None:
        old = (self.gap, self.live)
        n = self.keys.shape[0]
        super()._grow(capacity)
        for new_arr, old_arr in zip((self.gap, self.live), old):
            new_arr[:n] = old_arr

    def allocate(self) -> int:
        leaf = super().allocate()
        self.gap[leaf] = False
        self.live[leaf] = 0
        return leaf


class GappedCpuBPlusTree(RegularCpuBPlusTree):
    """A :class:`RegularCpuBPlusTree` whose big leaves carry
    interleaved gaps at a configurable fill factor.

    ``fill`` (the inherited bulk-build knob) sets the slot occupancy:
    at ``fill=0.7`` roughly every third slot starts as a gap, spread
    evenly through the leaf rather than packed at the tail.  All read
    paths are inherited unchanged; only the write paths differ.
    """

    def __init__(self, *args, **kwargs):
        self.gap_stats = GapStats()
        super().__init__(*args, **kwargs)

    def _make_leaf_pool(self) -> _GappedLeafPool:
        return _GappedLeafPool(self.spec)

    # ------------------------------------------------------------------
    # occupancy / iteration

    def leaf_occupancy(self, nodes: np.ndarray) -> np.ndarray:
        """Live (real) pairs per leaf — gaps do not count."""
        return self.leaves.live[np.asarray(nodes, dtype=np.int64)]

    def gap_occupancy(self) -> float:
        """Fraction of in-extent slots holding real entries."""
        chain = self.leaf_chain()
        if len(chain) == 0:
            return 1.0
        extent = int(self.leaves.size[chain].sum())
        if extent == 0:
            return 1.0
        return float(self.leaves.live[chain].sum()) / extent

    def _leaf_pairs(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        size = int(self.leaves.size[node])
        real = ~self.leaves.gap[node, :size]
        return (
            self.leaves.keys[node, :size][real],
            self.leaves.values[node, :size][real],
        )

    def _stored_mask(self, chain: np.ndarray) -> np.ndarray:
        return super()._stored_mask(chain) & ~self.leaves.gap[chain]

    def _gather_pairs(self, nodes: np.ndarray, a: np.ndarray,
                      b: np.ndarray,
                      results: List[Tuple[int, int]]) -> None:
        """Gap-mask-aware slot gather: only real pairs are emitted.

        The inherited :meth:`range_query` / :meth:`range_scan_from`
        chain walk touches gap slots' lines like a slot-by-slot walk
        does (a gap occupies the line whether or not it holds data);
        only the pair gather differs.
        """
        cap = self.leaves.capacity_pairs
        idx = _multi_arange(nodes * cap + a, b - a)
        idx = idx[~self.leaves.gap.reshape(-1)[idx]]
        k = self.leaves.keys.reshape(-1)[idx]
        v = self.leaves.values.reshape(-1)[idx]
        results.extend(zip(k.tolist(), v.tolist()))

    # ------------------------------------------------------------------
    # gapped write paths

    def _write_leaf_spread(
        self, node: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Rewrite a leaf spreading ``m`` sorted pairs over the whole
        capacity with evenly interleaved gaps (vectorised).

        Each gap is backfilled with the key/value of the next real slot
        so the array stays non-decreasing; slots past the last real
        entry return to the sentinel padding.
        """
        lv = self.leaves
        cap = lv.capacity_pairs
        m = len(keys)
        if m > cap:
            raise ValueError("leaf overflow in _write_leaf_spread")
        if m == 0:
            lv.keys[node] = self.spec.max_value
            lv.values[node] = 0
            lv.gap[node] = False
            lv.size[node] = 0
            lv.live[node] = 0
            self._refresh_last_level_keys(node)
            return
        src, gaps = _spread_slots(m, cap)
        extent = len(src)
        lv.keys[node, :extent] = keys[src]
        lv.values[node, :extent] = values[src]
        lv.keys[node, extent:] = self.spec.max_value
        lv.values[node, extent:] = 0
        lv.gap[node, :extent] = gaps
        lv.gap[node, extent:] = False
        lv.size[node] = extent
        lv.live[node] = m
        self._refresh_last_level_keys(node)

    def _write_leaf_pairs(
        self, node: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Batch-path layout hook: re-spread with interleaved gaps."""
        self.gap_stats.leaf_rewrites += 1
        self._write_leaf_spread(node, keys, values)

    def _leaf_upsert(self, node: int, key: int, value: int):
        """Place ``key`` into the leaf; returns ``(placed, was_new)``.

        ``placed`` is False only on gap exhaustion (leaf completely
        full) — the caller splits and retries.
        """
        lv = self.leaves
        cap = lv.capacity_pairs
        size = int(lv.size[node])
        keys = lv.keys[node]
        tk = self.spec.dtype(key)
        pos = int(np.searchsorted(keys[:size], tk))
        if pos < size and int(keys[pos]) == key:
            # present: the run [pos, right) is gaps + one real entry at
            # the right end, all duplicating the same pair — overwrite
            # the value in the whole run to keep duplicates consistent
            right = int(np.searchsorted(keys[:size], tk, side="right"))
            lv.values[node, pos:right] = value
            lv.version[node] += 1
            return True, False
        gaps_row = lv.gap[node]
        # nearest free slot at/after pos: an interior gap, else the
        # first slot past the extent
        g = -1
        if pos < size:
            after = np.flatnonzero(gaps_row[pos:size])
            if len(after):
                g = pos + int(after[0])
            elif size < cap:
                g = size
        elif size < cap:
            g = pos
        if g >= 0:
            if g > pos:
                # short shift of the real run [pos, g) into the gap
                keys[pos + 1: g + 1] = keys[pos:g]
                lv.values[node, pos + 1: g + 1] = lv.values[node, pos:g]
                self.gap_stats.shift_writes += 1
                self.gap_stats.shifted_pairs += g - pos
            else:
                self.gap_stats.gap_writes += 1
            keys[pos] = tk
            lv.values[node, pos] = value
            gaps_row[g] = False
            lv.size[node] = max(size, g + 1)
            lv.live[node] += 1
            return True, True
        # no gap at/after pos: borrow the nearest gap on the left
        before = np.flatnonzero(gaps_row[:pos])
        if len(before):
            g0 = int(before[-1])
            keys[g0:pos - 1] = keys[g0 + 1: pos]
            lv.values[node, g0:pos - 1] = lv.values[node, g0 + 1: pos]
            keys[pos - 1] = tk
            lv.values[node, pos - 1] = value
            gaps_row[g0] = False
            lv.live[node] += 1
            self.gap_stats.shift_writes += 1
            self.gap_stats.shifted_pairs += pos - 1 - g0
            return True, True
        return False, False

    def insert(self, key: int, value: int) -> bool:
        key = int(key)
        if not 0 <= key < self.spec.max_value:
            raise ValueError("key outside the valid (non-sentinel) domain")
        node, _line, path = self._descend(key, instrument=False)
        placed, was_new = self._leaf_upsert(node, key, value)
        if not placed:
            # gap exhaustion: split (re-spreads both halves), retry
            self._split_leaf(node, path)
            node, _line, path = self._descend(key, instrument=False)
            placed, was_new = self._leaf_upsert(node, key, value)
            if not placed:  # pragma: no cover - halves always have gaps
                raise AssertionError("split left no gap for the insert")
        if was_new:
            self._refresh_last_level_keys(node)
            self._bubble_up_max(path, key)
            self.num_tuples += 1
        return was_new

    def _split_leaf(self, node: int, path: list) -> None:
        """Split a gap-exhausted leaf, re-spreading both halves."""
        self.gap_stats.splits += 1
        keys, values = self._leaf_pairs(node)
        half = len(keys) // 2
        new_node = self._new_last_level_node()
        self._write_leaf_spread(node, keys[:half], values[:half])
        self._write_leaf_spread(new_node, keys[half:], values[half:])
        lv = self.leaves
        nxt = int(lv.next[node])
        lv.next[node] = new_node
        lv.prev[new_node] = node
        lv.next[new_node] = nxt
        if nxt != _NIL:
            lv.prev[nxt] = new_node
        self.last.next[node] = new_node
        self.last.prev[new_node] = node
        self.last.next[new_node] = nxt
        split_key = int(keys[half - 1])
        self._insert_into_parent(0, node, split_key, new_node, path)

    def delete(self, key: int) -> bool:
        key = int(key)
        node, _line, path = self._descend(key, instrument=False)
        lv = self.leaves
        size = int(lv.size[node])
        tk = self.spec.dtype(key)
        keys = lv.keys[node]
        pos = int(np.searchsorted(keys[:size], tk))
        if pos >= size or int(keys[pos]) != key:
            return False
        right = int(np.searchsorted(keys[:size], tk, side="right"))
        if right < size:
            # interior run: backfill with the next slot's pair
            keys[pos:right] = keys[right]
            lv.values[node, pos:right] = lv.values[node, right]
            lv.gap[node, pos:right] = True
        else:
            # tail run: truncate the extent back to the last real pair
            keys[pos:size] = self.spec.max_value
            lv.values[node, pos:size] = 0
            lv.gap[node, pos:size] = False
            lv.size[node] = pos
        lv.live[node] -= 1
        self.gap_stats.gap_deletes += 1
        self.num_tuples -= 1
        self._refresh_last_level_keys(node)
        if int(lv.live[node]) == 0 and self.height > 1:
            lv.keys[node] = self.spec.max_value
            lv.values[node] = 0
            lv.gap[node] = False
            lv.size[node] = 0
            self._remove_empty_leaf(node, path)
        return True

    # ------------------------------------------------------------------
    # bulk build

    def bulk_build(self, keys, values, fill: float = 1.0) -> None:
        """Build with interleaved (not suffix) gaps at ``fill``.

        The inherited build packs each leaf's pairs as a prefix; one
        re-spread of every leaf then interleaves the free slots instead
        (all full leaves share one slot pattern, the last leaf has its
        own), refreshing each leaf a second time as a per-leaf
        :meth:`_write_leaf_spread` would.
        """
        super().bulk_build(keys, values, fill=fill)
        lv = self.leaves
        last = lv.count - 1
        for rows in (slice(0, last), slice(last, last + 1)):
            if rows.stop == rows.start:
                continue
            m = int(lv.size[rows.start])
            src, gaps = _spread_slots(m, lv.capacity_pairs)
            extent = len(src)
            lv.keys[rows, :extent] = lv.keys[rows, :m][:, src]
            lv.values[rows, :extent] = lv.values[rows, :m][:, src]
            lv.gap[rows, :extent] = gaps
            lv.size[rows] = extent
            lv.live[rows] = m
        self._refresh_last_level_range(slice(0, lv.count))

    # ------------------------------------------------------------------
    # invariants

    def check_invariants(self) -> None:
        """Gapped-layout invariants + the inherited routing checks."""
        count = 0
        prev_key = -1
        node = self._first_leaf
        while node != _NIL:
            size = int(self.leaves.size[node])
            keys = self.leaves.keys[node]
            gaps = self.leaves.gap[node]
            live = 0
            for i in range(size):
                k = int(keys[i])
                if gaps[i]:
                    assert i + 1 < size, "gap at the extent boundary"
                    assert k == int(keys[i + 1]), (
                        "gap does not duplicate its right neighbour"
                    )
                else:
                    assert k > prev_key, "real keys out of order"
                    prev_key = k
                    live += 1
                    count += 1
            assert live == int(self.leaves.live[node]), "live count drifted"
            assert size == 0 or not gaps[size - 1], (
                "extent must end on a real pair"
            )
            pad = keys[size:]
            assert np.all(pad == self.spec.max_value), "leaf padding damaged"
            assert not gaps[size:].any(), "gap mask leaked past the extent"
            node = int(self.leaves.next[node])
        assert count == self.num_tuples, (
            f"item count {count} != num_tuples {self.num_tuples}"
        )
        self._check_subtree(self.height - 1, self.root)

    def __repr__(self) -> str:
        return (
            f"GappedCpuBPlusTree(n={self.num_tuples}, "
            f"height={self.height}, leaves={self.leaves.count}, "
            f"occupancy={self.gap_occupancy():.2f}, bits={self.spec.bits})"
        )
