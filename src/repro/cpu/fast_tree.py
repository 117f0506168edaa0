"""FAST (Fast Architecture Sensitive Tree) baseline.

FAST (Kim et al., SIGMOD 2010) is the comparison point of the paper's
Fig 9: an *implicit binary search tree* whose nodes are laid out with
hierarchical blocking — SIMD blocks inside cache-line blocks inside page
blocks — so a query touches one cache line per ``d_L`` binary levels
instead of one per level.

This implementation is functional (real lookups over the indexed pairs)
and instrumented: each visited cache-line block is charged to the memory
system, so the benchmark's throughput derives from the same machinery as
the B+-trees.  The key structural difference the paper exploits — FAST's
cache-line fanout of ``2**d_L`` versus the B+-tree's ``keys_per_line + 1``
— emerges directly from the layout.

Layout notes: with 64-bit keys a 64-byte line holds a complete binary
subtree of depth 3 (7 keys, 1 slot padding); with 32-bit keys depth 4
(15 keys, 1 slot padding).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cpu.contents import SortedContents
from repro.keys import KeySpec, key_spec, sorted_pairs
from repro.memsim.allocator import Segment
from repro.memsim.mainmem import MemorySystem, PageConfig


class FastTree(SortedContents):
    """An implicit, cache-line-blocked binary search tree.

    The index tree is a complete binary tree over the sorted keys
    (internal nodes replicate keys, values live in a separate sorted
    leaf array — the "rearranged tuples" of the FAST paper).
    """

    #: compute cycles per visited cache-line block: FAST's in-line
    #: search is a 3-stage SIMD-blocked binary descent (dependent
    #: stages), costlier than our one-shot node search but cheaper than
    #: a scalar scan.  Calibrated once against the paper's Fig 9 ratio.
    COMPUTE_CYCLES_PER_LINE = 13.5

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        key_bits: int = 64,
        mem: Optional[MemorySystem] = None,
        page_config: PageConfig = PageConfig.HUGE_HUGE,
        segment_prefix: str = "fast",
    ):
        self.spec: KeySpec = key_spec(key_bits)
        self.mem = mem
        self.page_config = page_config
        self._segment_prefix = segment_prefix
        self.i_segment: Optional[Segment] = None
        self.l_segment: Optional[Segment] = None
        # depth of a cache-line block: 3 for 64-bit keys, 4 for 32-bit
        self.line_depth = int(math.log2(self.spec.keys_per_line))
        self._build(keys, values)

    # ------------------------------------------------------------------

    def _build(self, keys, values) -> None:
        # explicit dtype: see ImplicitCpuBPlusTree._build
        keys = np.asarray(keys, dtype=self.spec.dtype)
        values = np.asarray(values, dtype=self.spec.dtype)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be 1-D arrays of equal length")
        if len(keys) == 0:
            raise ValueError("cannot build a tree over zero tuples")
        if int(keys.max()) >= self.spec.max_value:
            raise ValueError("keys must be strictly below the sentinel value")
        sorted_keys, sorted_values = sorted_pairs(keys, values)
        if sorted_keys is keys:  # the caller's arrays: see CssTree._build
            sorted_keys, sorted_values = keys.copy(), values.copy()
        self.sorted_keys = sorted_keys
        self.sorted_values = sorted_values
        self.num_tuples = len(keys)
        # complete binary tree depth over the tuples
        self.depth = max(1, math.ceil(math.log2(self.num_tuples + 1)))
        self._allocate_segments()

    def _allocate_segments(self) -> None:
        if self.mem is None:
            return
        prefix = self._segment_prefix
        for name in (f"{prefix}.I", f"{prefix}.L"):
            if name in self.mem.allocator:
                self.mem.allocator.free(name)
        self.i_segment = self.mem.allocate(
            f"{prefix}.I",
            max(1, self.index_lines) * self.spec.cache_line,
            self.page_config.inner_kind,
        )
        leaf_lines = math.ceil(
            self.num_tuples * 2 * self.spec.size_bytes / self.spec.cache_line
        )
        self.l_segment = self.mem.allocate(
            f"{prefix}.L", max(1, leaf_lines) * self.spec.cache_line,
            self.page_config.leaf_kind,
        )

    @property
    def index_lines(self) -> int:
        """Cache lines of the blocked index structure."""
        # one line per cache-line block; blocks tile the binary tree in
        # groups of `line_depth` levels
        blocks = 0
        nodes_at_block_root = 1
        level = 0
        while level < self.depth:
            blocks += nodes_at_block_root
            nodes_at_block_root *= 2 ** self.line_depth
            level += self.line_depth
        return blocks

    @property
    def lines_per_query(self) -> int:
        """Cache-line blocks visited per lookup (plus one leaf line)."""
        return math.ceil(self.depth / self.line_depth) + 1

    # ------------------------------------------------------------------

    def _block_line_index(self, level: int, path_bits: int) -> int:
        """Line index of the cache-line block containing a visited node.

        ``path_bits`` is the left/right decision history from the root;
        blocks are laid out breadth-first over block-roots.
        """
        block_level = level // self.line_depth
        # line offset of the first block at this block level
        offset = 0
        width = 1
        for _ in range(block_level):
            offset += width
            width *= 2 ** self.line_depth
        block_index = path_bits >> (level - block_level * self.line_depth)
        return offset + block_index

    def lookup(self, key: int, instrument: bool = True) -> Optional[int]:
        """Point query via blocked binary search over the index tree."""
        key = int(key)
        counters = self.mem.counters if (instrument and self.mem) else None
        lo, hi = 0, self.num_tuples  # search window over sorted keys
        path_bits = 0
        touched_line = -1
        for level in range(self.depth):
            if instrument and self.mem is not None and self.i_segment is not None:
                line = self._block_line_index(level, path_bits)
                if line != touched_line:
                    self.mem.touch_line(self.i_segment, line)
                    touched_line = line
            mid = (lo + hi) // 2
            if mid >= self.num_tuples:
                go_right = False
            else:
                go_right = key > int(self.sorted_keys[mid])
            if counters is not None:
                counters.key_comparisons += 1
                counters.simd_ops += 1 if level % 2 == 0 else 0
            if go_right:
                lo = mid + 1
            else:
                hi = mid
            path_bits = (path_bits << 1) | (1 if go_right else 0)
            if lo >= hi:
                break
        pos = lo
        if instrument and self.mem is not None and self.l_segment is not None:
            pair_bytes = 2 * self.spec.size_bytes
            self.mem.touch(
                self.l_segment,
                min(pos, self.num_tuples - 1) * pair_bytes,
                pair_bytes,
            )
        if counters is not None:
            counters.queries += 1
        if pos < self.num_tuples and int(self.sorted_keys[pos]) == key:
            return int(self.sorted_values[pos])
        return None

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Vectorised lookups; the sentinel value marks not-found."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        pos = np.searchsorted(self.sorted_keys, q)
        pos_c = np.minimum(pos, self.num_tuples - 1)
        found = self.sorted_keys[pos_c] == q
        out = np.full(len(q), self.spec.max_value, dtype=self.spec.dtype)
        out[found] = self.sorted_values[pos_c[found]]
        return out

    def stored_items(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.sorted_keys.copy(), self.sorted_values.copy()

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:
        return (
            f"FastTree(n={self.num_tuples}, depth={self.depth}, "
            f"bits={self.spec.bits})"
        )
