"""The level walk both implicit (pointer-free) CPU layouts share.

The implicit B+-tree's inner levels and the CSS-tree's directory have
one shape: breadth-first levels of one-cache-line nodes, root first,
where child ``j`` of node ``i`` is position ``i * fanout + j`` of the
level below.  :class:`ImplicitLevels` holds their geometry and their
descent; each tree names only its level list (``levels``) and how many
positions sit below its last level (``bottom_size``: leaves or runs).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cpu.contents import SortedContents
from repro.cpu.node_search import get_search_function
from repro.descent import lower_bound


class ImplicitLevels(SortedContents):
    """Geometry, segments and descent of an implicit layout.

    A tree sets ``spec``, ``fanout``, ``algorithm``, ``mem``,
    ``page_config`` and ``_segment_prefix``, and names its ``levels``
    (one ``(nodes, keys_per_line)`` key array per level, root first),
    ``bottom_size`` and ``l_segment_bytes``.
    """

    @property
    def levels(self) -> List[np.ndarray]:
        raise NotImplementedError

    @property
    def bottom_size(self) -> int:
        """Positions on the level below the last one: leaves or runs."""
        raise NotImplementedError

    @property
    def height(self) -> int:
        """H: number of levels above the leaves."""
        return len(self.levels)

    @property
    def num_inner_nodes(self) -> int:
        return sum(lvl.shape[0] for lvl in self.levels)

    @property
    def i_segment_bytes(self) -> int:
        return self.num_inner_nodes * self.spec.cache_line

    def _allocate_segments(self) -> None:
        """(Re)allocate the I-segment, one line per node, and the
        L-segment in ``mem`` (nothing without one)."""
        if self.mem is None:
            return
        prefix = self._segment_prefix
        for name in (f"{prefix}.I", f"{prefix}.L"):
            if name in self.mem.allocator:
                self.mem.allocator.free(name)
        self.i_segment = self.mem.allocate(
            f"{prefix}.I", max(1, self.num_inner_nodes) * self.spec.cache_line,
            self.page_config.inner_kind,
        )
        self.l_segment = self.mem.allocate(
            f"{prefix}.L", self.l_segment_bytes, self.page_config.leaf_kind
        )

    def _level_line_offset(self, level: int) -> int:
        """Line offset of a level inside the I-segment (root first)."""
        return sum(lvl.shape[0] for lvl in self.levels[:level])

    def _next_size(self, level: int) -> int:
        """Positions on level ``level + 1`` (``bottom_size`` below the
        last level)."""
        levels = self.levels
        if level + 1 < len(levels):
            return levels[level + 1].shape[0]
        return self.bottom_size

    def descend_level(self, level: int, node: np.ndarray,
                      queries: np.ndarray) -> np.ndarray:
        """One vectorised step: each query moves from row ``node`` of
        ``level`` to child ``k = count(keys < q)`` (exact: a CPU-optimized
        row of ``fanout - 1`` keys has a child past them), position
        ``node * fanout + k`` on level ``level + 1``, clamped to that
        level's size."""
        grid = self.levels[level]
        k = lower_bound(grid, 0, grid.shape[1], node if level else 0,
                        queries, exact=True)[1]
        return np.minimum(node * self.fanout + k, self._next_size(level) - 1)

    def descend_top(self, queries: np.ndarray,
                    depths: np.ndarray) -> np.ndarray:
        """Walk each query's top ``depths`` levels; returns the
        positions a GPU descent resumes from, each query stepping
        exactly as a full descent would."""
        node = np.zeros(len(queries), dtype=np.int64)
        for level in range(self.height):
            active = depths > level
            if not np.any(active):
                break
            node[active] = self.descend_level(level, node[active],
                                              queries[active])
        return node

    def _descend(self, key: int, instrument: bool) -> int:
        """Scalar walk of every level with the tree's node search,
        touching one I-segment line per level when ``instrument``;
        returns the position below the last level."""
        search = get_search_function(self.algorithm)
        counters = self.mem.counters if (instrument and self.mem) else None
        touch = instrument and self.mem is not None \
            and self.i_segment is not None
        node = 0
        for level, level_keys in enumerate(self.levels):
            if touch:
                self.mem.touch_line(self.i_segment,
                                    self._level_line_offset(level) + node)
            k = search(level_keys[node], key, counters)
            node = min(node * self.fanout + k, self._next_size(level) - 1)
        return node
