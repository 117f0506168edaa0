"""The whole-image mirror compare: the oracle of the write ledger.

``HBPlusTree.verify_mirror`` compares only the rows its write ledger
names.  :func:`full_diff_rows` is the compare it replaced, over every
element of the device mirror and the expected image, and
:class:`LedgerShadow` runs the two side by side at every call.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.hbtree import HBPlusTree

#: the ledger compare, as the product defines it
LEDGER_VERIFY = HBPlusTree.verify_mirror


def full_diff_rows(tree: HBPlusTree) -> Optional[np.ndarray]:
    """The mirror rows that differ from the expected image over the
    whole image, or None when the sizes differ.  Screens nothing."""
    mirror = tree.iseg_buffer.array
    expected = tree.current_i_segment_image()
    if mirror.size != expected.size:
        return None
    if np.array_equal(mirror, expected):
        return np.empty(0, dtype=np.int64)
    return np.unique(np.flatnonzero(mirror != expected) // tree.node_stride)


def oracle_verify(tree: HBPlusTree) -> Optional[np.ndarray]:
    """``verify_mirror`` with the whole-image compare in place of the
    ledger: the same corruption screen, then :func:`full_diff_rows`."""
    if tree.injector is not None:
        tree.injector.maybe_corrupt(tree.iseg_buffer.array)
    return full_diff_rows(tree)


def same_rows(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


class LedgerShadow:
    """``HBPlusTree.verify_mirror`` that also runs the oracle on the
    state the ledger compare saw, and raises on the first difference.

    ``install()`` replaces the method on the class, ``uninstall()``
    puts the product's back.  ``calls`` counts shadowed verifies and
    ``results`` tallies them as ``None``, ``clean`` or ``rows``.
    """

    def __init__(self):
        self.calls = 0
        self.results = {"None": 0, "clean": 0, "rows": 0}
        self.mismatches: List[str] = []

    def verify(self, tree: HBPlusTree) -> Optional[np.ndarray]:
        got = LEDGER_VERIFY(tree)
        want = full_diff_rows(tree)
        self.calls += 1
        if not same_rows(got, want):
            self.mismatches.append(f"ledger {got!r} != whole image {want!r}")
            raise AssertionError(self.mismatches[-1])
        key = "None" if got is None else ("rows" if len(got) else "clean")
        self.results[key] += 1
        return got

    def install(self) -> None:
        shadow = self

        def verify_mirror(tree):
            return shadow.verify(tree)

        verify_mirror.__doc__ = LEDGER_VERIFY.__doc__
        HBPlusTree.verify_mirror = verify_mirror

    def uninstall(self) -> None:
        HBPlusTree.verify_mirror = LEDGER_VERIFY
