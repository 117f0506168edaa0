"""Cache Sensitive Search tree (CSS-tree, Rao & Ross VLDB'99).

The paper's related work (section 2) and the prototype "third tree" for
the generic hybrid framework of section 7's future work: a *directory*
of cache-line-sized nodes built over the sorted data array itself.
Unlike the B+-tree variants, leaves are not copied into leaf nodes —
the sorted key/value arrays **are** the leaf level ("leaf-stored"
in its purest form), which makes the CSS-tree the most space-efficient
static option.

Structure: the sorted keys are cut into runs of ``keys_per_line``
entries; directory level 0 holds the max key of each run, and further
directory levels stack with the same cache-line fanout, exactly like
the implicit B+-tree's inner levels.  Search descends the directory and
finishes with one binary probe inside the located run.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.implicit_levels import ImplicitLevels
from repro.cpu.node_search import NodeSearchAlgorithm
from repro.keys import KeySpec, key_spec, sorted_pairs
from repro.memsim.allocator import Segment
from repro.memsim.mainmem import MemorySystem, PageConfig


class CssTree(ImplicitLevels):
    """A static CSS-tree over sorted key/value arrays."""

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        key_bits: int = 64,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_HUGE,
        algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.HIERARCHICAL_SIMD,
        segment_prefix: str = "css",
    ):
        self.spec: KeySpec = key_spec(key_bits)
        self.fanout = self.spec.keys_per_line
        self.algorithm = algorithm
        self.mem = mem
        self.page_config = page_config
        self._segment_prefix = segment_prefix
        self.i_segment: Optional[Segment] = None
        self.l_segment: Optional[Segment] = None
        self._build(keys, values)

    # ------------------------------------------------------------------

    def _build(self, keys, values) -> None:
        keys = np.asarray(keys, dtype=self.spec.dtype)
        values = np.asarray(values, dtype=self.spec.dtype)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be 1-D arrays of equal length")
        if len(keys) == 0:
            raise ValueError("cannot build a tree over zero tuples")
        if int(keys.max()) >= self.spec.max_value:
            raise ValueError("keys must be strictly below the sentinel value")
        self.num_tuples = len(keys)
        sentinel = self.spec.max_value
        run = self.fanout
        n_runs = math.ceil(self.num_tuples / run)
        # the pairs padded to whole runs, one row per run (the grids the
        # hybrid leaf stage probes); the sorted arrays are their prefix,
        # so the caller's presorted arrays are never kept
        self.run_keys = np.full((n_runs, run), sentinel, dtype=self.spec.dtype)
        self.run_values = np.zeros((n_runs, run), dtype=self.spec.dtype)
        self.sorted_keys = self.run_keys.reshape(-1)[: self.num_tuples]
        self.sorted_values = self.run_values.reshape(-1)[: self.num_tuples]
        self.sorted_keys[:], self.sorted_values[:] = sorted_pairs(keys, values)
        # directory levels bottom-up; each entry is the max key covered
        child_max = self.sorted_keys[
            np.minimum(np.arange(1, n_runs + 1) * run - 1,
                       self.num_tuples - 1)
        ]
        self.directory: List[np.ndarray] = []
        n_children = n_runs
        while n_children > 1:
            n_nodes = math.ceil(n_children / self.fanout)
            level = np.full((n_nodes, self.fanout), sentinel,
                            dtype=self.spec.dtype)
            level.reshape(-1)[:n_children] = child_max
            # catch-all pin for the rightmost real child (probes beyond
            # the maximum key route down the rightmost path)
            level[n_nodes - 1,
                  (n_children - 1) - (n_nodes - 1) * self.fanout] = sentinel
            self.directory.append(level)
            # the keys are sorted, so a node's maximum is its last child's
            child_max = child_max[
                np.minimum(np.arange(1, n_nodes + 1) * self.fanout,
                           n_children) - 1
            ]
            n_children = n_nodes
        self.directory.reverse()  # root first
        self.num_runs = n_runs
        self._allocate_segments()

    # ------------------------------------------------------------------

    @property
    def levels(self) -> List[np.ndarray]:
        return self.directory

    @property
    def bottom_size(self) -> int:
        return self.num_runs

    @property
    def directory_bytes(self) -> int:
        return self.i_segment_bytes

    @property
    def l_segment_bytes(self) -> int:
        # whole cache lines: a run's lines are touched as lines
        line = self.spec.cache_line
        return max(1, -(-self.num_tuples * 2 * self.spec.size_bytes // line)) * line

    def lookup(self, key: int, instrument: bool = True) -> Optional[int]:
        """Point query: directory descent + one probe into the run."""
        key = int(key)
        run = self._descend(key, instrument)
        counters = self.mem.counters if (instrument and self.mem) else None
        lo = run * self.fanout
        hi = min(lo + self.fanout, self.num_tuples)
        if instrument and self.mem is not None and self.l_segment is not None:
            self.mem.touch(
                self.l_segment, lo * 2 * self.spec.size_bytes,
                (hi - lo) * 2 * self.spec.size_bytes,
            )
        pos = lo + int(np.searchsorted(self.sorted_keys[lo:hi],
                                       self.spec.dtype(key)))
        if counters is not None:
            counters.queries += 1
            counters.key_comparisons += hi - lo
        if pos < hi and int(self.sorted_keys[pos]) == key:
            return int(self.sorted_values[pos])
        return None

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Vectorised lookups; the sentinel marks not-found."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        pos = np.searchsorted(self.sorted_keys, q)
        pos_c = np.minimum(pos, self.num_tuples - 1)
        found = self.sorted_keys[pos_c] == q
        out = np.full(len(q), self.spec.max_value, dtype=self.spec.dtype)
        out[found] = self.sorted_values[pos_c[found]]
        return out

    def range_query(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Range scan directly over the sorted data array."""
        if lo > hi:
            return []
        start = int(np.searchsorted(self.sorted_keys,
                                    self.spec.dtype(lo)))
        end = int(np.searchsorted(self.sorted_keys, self.spec.dtype(hi),
                                  side="right"))
        if self.mem is not None and self.l_segment is not None and end > start:
            pair = 2 * self.spec.size_bytes
            self.mem.touch(self.l_segment, start * pair,
                           max(pair, (end - start) * pair))
        return list(zip(self.sorted_keys[start:end].tolist(),
                        self.sorted_values[start:end].tolist()))

    def stored_items(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.sorted_keys.copy(), self.sorted_values.copy()

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:
        return (
            f"CssTree(n={self.num_tuples}, height={self.height}, "
            f"runs={self.num_runs}, bits={self.spec.bits})"
        )
