"""Node search: sequential, linear SIMD, and hierarchical SIMD.

Given one node's key array (one cache line: 8 64-bit or 16 32-bit keys,
padded with the maximum value) and a query, every algorithm returns

    ``k`` — the number of keys strictly less than the query,

which is both "the minimum i such that query <= node[i]" (the paper's
phrasing) and the child index to descend into.

The SIMD variants are ports of appendix Snippets 1 and 2 on top of the
:mod:`repro.cpu.simd` register model, including the
``movemask & pattern; popcount`` idiom.  Each algorithm records the
scalar comparisons and vector operations it executes into an optional
:class:`~repro.memsim.metrics.AccessCounters`, which is what the cost
model charges compute time for.

On a non-decreasing line those counters depend only on how many keys
are smaller than the query, so :func:`search_costs` and
:func:`leaf_line_costs` give them in closed form.  The trees search in
closed form and charge through these; the emulated functions remain
the Fig 8 code and the reference the closed forms are tested against.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cpu import simd
from repro.memsim.metrics import AccessCounters


class NodeSearchAlgorithm(enum.Enum):
    """The three node-search strategies compared in Fig 8."""

    SEQUENTIAL = "sequential"
    LINEAR_SIMD = "linear"
    HIERARCHICAL_SIMD = "hierarchical"


def sequential_search(
    keys: Sequence[int], query: int, counters: Optional[AccessCounters] = None
) -> int:
    """Scan the node left to right until a key >= query is found."""
    k = 0
    comparisons = 0
    for key in keys:
        comparisons += 1
        if int(key) >= query:
            break
        k += 1
    if counters is not None:
        counters.key_comparisons += comparisons
    return k


def _linear_half_64(node: Sequence[int], vquery: simd.VecReg, lo: int) -> int:
    """One iteration of Snippet 1: compare four 64-bit keys to the query."""
    vec = simd.mm256_set_epi64x(
        int(node[lo + 3]), int(node[lo + 2]), int(node[lo + 1]), int(node[lo])
    )
    vcmp = simd.cmpgt(vquery, vec)
    cmp = simd.movemask_epi8(vcmp)
    cmp &= 0x10101010
    return simd.popcount(cmp)


def linear_simd_search(
    keys: Sequence[int], query: int, counters: Optional[AccessCounters] = None
) -> int:
    """Snippet 1: split the line into halves, count smaller keys in each.

    Control-dependency free (safe for out-of-order execution): both
    halves are always compared.
    """
    n = len(keys)
    if n == 8:  # 64-bit keys: 2 x 4 lanes
        vquery = simd.mm256_set1_epi64x(query)
        k = _linear_half_64(keys, vquery, 0)
        k += _linear_half_64(keys, vquery, 4)
        ops = 8  # 2x (set, cmp, movemask, popcount)
    elif n == 16:  # 32-bit keys: 2 x 8 lanes
        vquery = simd.mm256_set1_epi32(query)
        k = 0
        for lo in (0, 8):
            vec = simd.mm256_set_epi32(*[int(keys[lo + 7 - i]) for i in range(8)])
            vcmp = simd.cmpgt(vquery, vec)
            k += simd.count_true_lanes(vcmp)
        ops = 8
    else:
        raise ValueError(f"linear SIMD search expects 8 or 16 keys, got {n}")
    if counters is not None:
        counters.simd_ops += ops
        counters.key_comparisons += n
    return k


def hierarchical_simd_search(
    keys: Sequence[int], query: int, counters: Optional[AccessCounters] = None
) -> int:
    """Snippet 2: probe boundary keys first, then one small interval.

    Loads fewer keys into registers than the linear variant at the price
    of a control dependency between the two comparison stages.
    """
    n = len(keys)
    if n == 8:  # 64-bit: boundaries node[2], node[5]; parts of width 2
        vquery = simd.mm_set1_epi64x(query)
        vec = simd.mm_set_epi64x(int(keys[2]), int(keys[5]))
        vcmp = simd.cmpgt(vquery, vec)
        cmp = simd.movemask_epi8(vcmp)
        cmp &= 0x00001010
        k = simd.popcount(cmp) * 3
        vec = simd.mm_set_epi64x(int(keys[k]), int(keys[k + 1]))
        vcmp = simd.cmpgt(vquery, vec)
        cmp = simd.movemask_epi8(vcmp)
        cmp &= 0x00001010
        k += simd.popcount(cmp)
        ops = 6
        compared = 4
    elif n == 16:  # 32-bit: boundaries at odd indexes, then one scalar probe
        vquery = simd.mm256_set1_epi32(query)
        vec = simd.mm256_set_epi32(*[int(keys[15 - 2 * i]) for i in range(8)])
        vcmp = simd.cmpgt(vquery, vec)
        c = simd.count_true_lanes(vcmp)
        if c == 8:
            k = 16
            compared = 8
        else:
            k = 2 * c + (1 if int(keys[2 * c]) < query else 0)
            compared = 9
        ops = 3
    else:
        raise ValueError(f"hierarchical SIMD search expects 8 or 16 keys, got {n}")
    if counters is not None:
        counters.simd_ops += ops
        counters.key_comparisons += compared
    return k


def search_leaf_line(
    keys: Sequence[int],
    query: int,
    counters: Optional[AccessCounters] = None,
    algorithm: NodeSearchAlgorithm = NodeSearchAlgorithm.LINEAR_SIMD,
) -> int:
    """Search the key half of a leaf cache line (P_L keys).

    A leaf line holds only ``keys_per_line / 2`` keys (the other half is
    values), so a single 256-bit comparison covers it; the SEQUENTIAL
    algorithm falls back to a scalar scan.
    """
    if algorithm is NodeSearchAlgorithm.SEQUENTIAL:
        return sequential_search(keys, query, counters)
    n = len(keys)
    k = sum(1 for key in keys if int(key) < query)
    if counters is not None:
        counters.key_comparisons += n
        # one vector load+compare per 256-bit worth of keys, plus the
        # movemask/popcount pair
        counters.simd_ops += 2 * max(1, n * 8 // 32) + 2
    return k


# Padding slots hold the sentinel key (the key dtype's maximum), so a
# sentinel query "matches" one whenever its leaf has padding.  No stored
# key may equal the sentinel, so that match is a miss: this probe and
# the batched one (:func:`repro.descent.probe`) answer the sentinel as
# not-found.


def leaf_hit(row: Sequence[int], pos: int, key: int, sentinel: int) -> bool:
    """Whether slot ``pos`` of leaf line ``row`` holds the query ``key``
    (``pos`` from :func:`search_leaf_line`)."""
    return pos < len(row) and key != sentinel and int(row[pos]) == key


def search_costs(algorithm: NodeSearchAlgorithm, n: int, below):
    """``(key_comparisons, simd_ops)`` that ``algorithm``'s search
    function records on one non-decreasing line of ``n`` keys of which
    ``below`` are smaller than the query.

    Closed form of the counters the emulated functions above record, so
    a caller that already knows ``below`` (a ``searchsorted`` or a
    vectorised count) can charge the exact same work without running
    the register emulation.  ``below`` may be an integer array; the
    result is then per element.
    """
    below = np.asarray(below, dtype=np.int64)
    if n not in (8, 16):
        raise ValueError(f"node search expects 8 or 16 keys, got {n}")
    if algorithm is NodeSearchAlgorithm.SEQUENTIAL:
        return np.minimum(below + 1, n), np.zeros_like(below)
    if algorithm is NodeSearchAlgorithm.LINEAR_SIMD:
        return np.full_like(below, n), np.full_like(below, 8)
    if n == 8:
        return np.full_like(below, 4), np.full_like(below, 6)
    # 32-bit hierarchical: the boundary compare settles a query above
    # every key; any other needs one scalar probe more
    return np.where(below == n, 8, 9), np.full_like(below, 3)


def leaf_line_costs(algorithm: NodeSearchAlgorithm, n: int, below):
    """:func:`search_costs` for :func:`search_leaf_line` on ``n`` keys."""
    below = np.asarray(below, dtype=np.int64)
    if algorithm is NodeSearchAlgorithm.SEQUENTIAL:
        return np.minimum(below + 1, n), np.zeros_like(below)
    return (np.full_like(below, n),
            np.full_like(below, 2 * max(1, n * 8 // 32) + 2))


_DISPATCH: dict = {
    NodeSearchAlgorithm.SEQUENTIAL: sequential_search,
    NodeSearchAlgorithm.LINEAR_SIMD: linear_simd_search,
    NodeSearchAlgorithm.HIERARCHICAL_SIMD: hierarchical_simd_search,
}


def get_search_function(
    algorithm: NodeSearchAlgorithm,
) -> Callable[..., int]:
    """Resolve an algorithm enum to its search function."""
    return _DISPATCH[algorithm]


#: estimated CPU cycles of pure compute per node search, used by the
#: analytic cost model (memory time is modeled separately).  Sequential
#: search pays data-dependent branches; hierarchical SIMD loads less than
#: linear SIMD and is slightly faster (Fig 8).
COMPUTE_CYCLES = {
    NodeSearchAlgorithm.SEQUENTIAL: 22.0,
    NodeSearchAlgorithm.LINEAR_SIMD: 10.0,
    NodeSearchAlgorithm.HIERARCHICAL_SIMD: 9.0,
}
