"""The one contents read every CPU tree shares.

A tree's stored pairs — the L-segment, the source of truth — are read
as two arrays in key order, :meth:`SortedContents.stored_items`.
Persistence, snapshots, shard splits and merges all read that; the
Python-pair view :meth:`SortedContents.items` is derived from it.
Membership is one uninstrumented ``lookup``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


class SortedContents:
    """Mixin deriving the contents views from ``stored_items()``."""

    def stored_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored ``(keys, values)`` arrays, in key order (new
        arrays: the caller may change them)."""
        raise NotImplementedError

    def stored_keys(self) -> np.ndarray:
        """The keys of :meth:`stored_items`."""
        return self.stored_items()[0]

    def items(self) -> List[Tuple[int, int]]:
        """:meth:`stored_items` as a list of ``(key, value)`` ints."""
        keys, values = self.stored_items()
        return list(zip(keys.tolist(), values.tolist()))

    def __contains__(self, key: int) -> bool:
        return self.lookup(key, instrument=False) is not None
