"""Key/value type descriptions shared by all tree variants.

The paper develops 64-bit and 32-bit versions of every tree.  A cache
line (64 bytes) holds 8 64-bit or 16 32-bit variables, which determines
node fanouts throughout the designs (section 4.1 / 5.2):

==============================  =======  =======
quantity                         64-bit   32-bit
==============================  =======  =======
keys per cache line                    8       16
implicit CPU tree fanout               9       17
implicit HB+-tree fanout               8       16
regular tree fanout                   64      256
leaf pairs per cache line (P_L)        4        8
==============================  =======  =======

Keys are unsigned; the maximum representable value (``2**n - 1``) is
reserved as the padding sentinel — the paper sets "all empty keys of each
inner node to the maximum value" so node search needs no size field.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class KeySpec:
    """Width-dependent constants for one key size."""

    bits: int
    dtype: type
    cache_line: int = 64

    @property
    def size_bytes(self) -> int:
        return self.bits // 8

    @property
    def max_value(self) -> int:
        """The sentinel: ``2**n - 1`` for an n-bit unsigned integer."""
        return (1 << self.bits) - 1

    @property
    def keys_per_line(self) -> int:
        return self.cache_line // self.size_bytes

    @property
    def leaf_pairs_per_line(self) -> int:
        """P_L: key-value pairs per cache line (paper section 4.1)."""
        return self.keys_per_line // 2

    @property
    def implicit_cpu_fanout(self) -> int:
        """Fanout of the CPU-optimized implicit tree: keys/line + 1."""
        return self.keys_per_line + 1

    @property
    def implicit_hybrid_fanout(self) -> int:
        """Fanout of the implicit HB+-tree (last key pinned to MAX)."""
        return self.keys_per_line

    @property
    def regular_fanout(self) -> int:
        """F_I of the regular trees: 64 (64-bit) or 256 (32-bit)."""
        return self.keys_per_line**2

    @property
    def gpu_threads_per_query(self) -> int:
        """T in section 5.3: 8 for 64-bit keys, 16 for 32-bit keys."""
        return self.keys_per_line

    def as_key_array(self, values) -> np.ndarray:
        return np.asarray(values, dtype=self.dtype)

    def coerce(self, values) -> np.ndarray:
        """Coerce any integer sequence to the key dtype, checked, once.

        Accepts arrays of any integer dtype (and plain Python ints,
        which may exceed 64 bits) and returns an array of ``dtype``.
        Unlike a bare ``np.asarray(values, dtype=...)`` — which silently
        wraps negative or oversized values — out-of-range keys raise
        ``OverflowError`` and non-integer input raises ``TypeError``.
        Arrays already of the key dtype pass through without a copy.
        """
        arr = np.asarray(values)
        if arr.dtype == self.dtype:
            return arr
        if arr.dtype == np.bool_:
            # bool subclasses int, so operator.index(True) == 1 would
            # silently pass below — but a boolean is not a key; reject
            # scalars, lists and arrays of bool/np.bool_ alike
            raise TypeError(
                "keys must be integers, got booleans (bool is not a "
                "key type even though it subclasses int)"
            )
        if arr.dtype == object or (
            not isinstance(values, np.ndarray)
            and not np.issubdtype(arr.dtype, np.integer)
        ):
            # Python ints in [2**63, 2**64) make np.asarray fall back to
            # float64 — re-read the original values exactly.  operator
            # .index() rejects genuine floats with TypeError.
            obj = np.asarray(values, dtype=object)
            flat_obj = obj.reshape(-1)
            if any(isinstance(v, (bool, np.bool_)) for v in flat_obj):
                # mixed object lists like [2**63, True] reach this path;
                # operator.index would accept the bool — reject it
                raise TypeError(
                    "keys must be integers, got booleans (bool is not "
                    "a key type even though it subclasses int)"
                )
            try:
                flat = [operator.index(v) for v in flat_obj]
            except TypeError:
                raise TypeError(
                    f"keys must be integers, got dtype {arr.dtype!s}"
                ) from None
            bad = [v for v in flat if v < 0 or v > self.max_value]
            if bad:
                raise OverflowError(
                    f"key {bad[0]} outside [0, {self.max_value}] for "
                    f"{self.bits}-bit keys"
                )
            return np.asarray(flat, dtype=self.dtype).reshape(obj.shape)
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(
                f"keys must be integers, got dtype {arr.dtype!s}"
            )
        if arr.size:
            lo = int(arr.min())
            hi = int(arr.max())
            if lo < 0 or hi > self.max_value:
                raise OverflowError(
                    f"key {lo if lo < 0 else hi} outside "
                    f"[0, {self.max_value}] for {self.bits}-bit keys"
                )
        return arr.astype(self.dtype)


KEY64 = KeySpec(bits=64, dtype=np.uint64)
KEY32 = KeySpec(bits=32, dtype=np.uint32)


def key_spec(bits: int) -> KeySpec:
    """Return the :class:`KeySpec` for 32 or 64 bit keys."""
    if bits == 64:
        return KEY64
    if bits == 32:
        return KEY32
    raise ValueError(f"unsupported key width: {bits} (expected 32 or 64)")


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` by sort plus adjacent difference.

    Identical output.  Plain ``np.unique`` takes a hash path on recent
    numpy that is far slower than sorting for large integer arrays
    (0.8 s against 12 ms for 2**20 keys on numpy 2.4).  Input that is
    already strictly increasing comes back as is, unsorted and uncopied.
    """
    arr = np.asarray(values)
    if arr.ndim == 1 and strictly_increasing(arr):
        return arr
    s = np.sort(arr, axis=None)
    if len(s) < 2:
        return s
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def strictly_increasing(values: np.ndarray) -> bool:
    """Whether ``values`` are sorted with no repeats: the order every
    build and every range cut needs, so presorted input skips a sort."""
    return len(values) < 2 or bool(np.all(values[1:] > values[:-1]))


def sorted_pairs(keys: np.ndarray,
                 values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, values)`` in strictly increasing key order.

    Sorts (stably) only when the keys are not in that order already, so
    a bulk load, a shard slice or a snapshot restore costs one
    comparison pass and no sort; raises ``ValueError`` on a repeated
    key.  Presorted input comes back as the caller's arrays, not as
    copies.
    """
    if not strictly_increasing(keys):
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate keys are not supported")
    return keys, values
