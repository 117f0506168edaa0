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
  Only when a leaf holds no gap at all does the insert split it, and
  the split re-spreads both halves with fresh interleaved gaps.
* **Delete** marks the run as gaps backfilled from the right neighbour
  (or truncates the extent at the tail) — again no shift.

Every write runs through the inherited ``apply_batch``; this module
supplies its layout hooks.  A lone op is one in-place row write, so its
:class:`GapStats` delta lets the mixed engine (:mod:`repro.core.mixed`)
price in-place writes, short shifts and splits separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cpu.btree_regular import (
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
    # gapped layout hooks of the batch write

    def _write_leaf_pairs(self, node: int, keys: np.ndarray,
                          values: np.ndarray) -> None:
        """Spread ``m`` sorted pairs over the whole leaf with evenly
        interleaved gaps, each backfilled from the next real slot; slots
        past the last real pair return to the sentinel padding."""
        lv = self.leaves
        m = extent = len(keys)
        if m:
            src, gaps = _spread_slots(m, lv.capacity_pairs)
            extent = len(src)
            lv.keys[node, :extent] = keys[src]
            lv.values[node, :extent] = values[src]
            lv.gap[node, :extent] = gaps
        lv.keys[node, extent:] = self.spec.max_value
        lv.values[node, extent:] = 0
        lv.gap[node, extent:] = False
        lv.size[node] = extent
        lv.live[node] = m

    def _split_rows(self, node: int, new: int, keys: np.ndarray,
                    values: np.ndarray) -> None:
        """A gap-exhausted leaf's split re-spreads both halves."""
        self.gap_stats.splits += 1
        super()._split_rows(node, new, keys, values)

    def _write_rows(self, nodes: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, sizes: np.ndarray) -> None:
        """A merged group re-spreads its leaf once."""
        self.gap_stats.leaf_rewrites += len(nodes)
        cuts = np.cumsum(sizes)[:-1]
        for node, k, v in zip(nodes.tolist(), np.split(keys, cuts),
                              np.split(values, cuts)):
            self._write_leaf_pairs(node, k, v)

    def _merge_rows(self, leaf: np.ndarray, keys: np.ndarray,
                    values: np.ndarray, dele: np.ndarray,
                    delta: np.ndarray) -> None:
        """Lone ops and value-only groups write in place, so each op's
        :class:`GapStats` delta prices it; a group of ops that changes
        its leaf's key set merges and re-spreads the leaf once."""
        run = np.cumsum(np.diff(leaf, prepend=-1) != 0) - 1
        spread = ((np.bincount(run) > 1)
                  & (np.bincount(run, weights=delta != 0) > 0))[run]
        for i in np.flatnonzero(~spread).tolist():
            self._row_write(int(leaf[i]), keys[i], values[i], dele[i])
        if spread.any():
            super()._merge_rows(leaf[spread], keys[spread], values[spread],
                                dele[spread], delta[spread])

    def _row_write(self, node: int, key, value, delete: bool) -> None:
        """One op on one leaf in place: a fresh key takes the nearest
        free slot at or after its place (shifting the real run before it
        by one), else the nearest gap on its left; an overwrite rewrites
        the key's run of duplicates; a delete turns the run into gaps
        backfilled from the right, or truncates the extent at the tail."""
        lv, stats = self.leaves, self.gap_stats
        size = int(lv.size[node])
        keys, vals, gaps = lv.keys[node], lv.values[node], lv.gap[node]
        pos = int(np.searchsorted(keys[:size], key))
        if pos < size and keys[pos] == key:
            right = int(np.searchsorted(keys[:size], key, side="right"))
            if not delete:
                vals[pos:right] = value
                return
            tail = right == size
            keys[pos:right] = self.spec.max_value if tail else keys[right]
            vals[pos:right] = 0 if tail else vals[right]
            gaps[pos:right] = not tail
            if tail:
                lv.size[node] = pos
            lv.live[node] -= 1
            stats.gap_deletes += 1
            return
        if delete:
            return
        after = np.flatnonzero(gaps[pos:size])
        g = (pos + int(after[0]) if len(after)
             else size if size < lv.capacity_pairs else -1)
        if g == pos:
            stats.gap_writes += 1
        elif g > pos:
            keys[pos + 1: g + 1] = keys[pos:g]
            vals[pos + 1: g + 1] = vals[pos:g]
            stats.shift_writes += 1
            stats.shifted_pairs += g - pos
        else:
            g = int(np.flatnonzero(gaps[:pos])[-1])
            keys[g: pos - 1] = keys[g + 1: pos]
            vals[g: pos - 1] = vals[g + 1: pos]
            pos -= 1
            stats.shift_writes += 1
            stats.shifted_pairs += pos - g
        lv.size[node] = max(size, g + 1)
        keys[pos] = key
        vals[pos] = value
        gaps[g] = False
        lv.live[node] += 1

    # ------------------------------------------------------------------
    # bulk build

    def bulk_build(self, keys, values, fill: float = 1.0) -> None:
        """Build with interleaved (not suffix) gaps at ``fill``.

        The inherited build packs each leaf's pairs as a prefix; one
        re-spread of every leaf then interleaves the free slots instead
        (all full leaves share one slot pattern, the last leaf has its
        own), then refreshes every leaf a second time, as the per-leaf
        re-spread of ``tests/build_oracles.py`` does.
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

    def _check_leaf(self, node: int) -> np.ndarray:
        """The gapped layout: each gap duplicates its right neighbour,
        the extent ends on a real pair, the live count holds."""
        keys = super()._check_leaf(node)
        size = len(keys)
        gaps = self.leaves.gap[node]
        assert not gaps[size:].any(), "gap mask leaked past the extent"
        assert size == 0 or not gaps[size - 1], (
            "extent must end on a real pair")
        g = np.flatnonzero(gaps[:size])
        assert np.all(keys[g] == keys[g + 1]), (
            "gap does not duplicate its right neighbour")
        real = keys[~gaps[:size]]
        assert len(real) == self.leaves.live[node], "live count drifted"
        return real

    def __repr__(self) -> str:
        return (
            f"GappedCpuBPlusTree(n={self.num_tuples}, "
            f"height={self.height}, leaves={self.leaves.count}, "
            f"occupancy={self.gap_occupancy():.2f}, bits={self.spec.bits})"
        )
