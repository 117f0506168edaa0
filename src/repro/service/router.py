"""Keyspace partitioning: the shard routing tables.

Two partitioning schemes, one interface:

* :class:`RangeRouter` — ``cuts`` of n-1 boundary keys split the
  domain into n contiguous ranges; shard ``i`` owns
  ``[cuts[i-1], cuts[i])``.  Range scans touch only the shards whose
  ranges intersect the scan span, and online split/merge is an O(1)
  table edit (insert/remove one cut) — the scheme the service's
  split/merge protocol requires.
* :class:`HashRouter` — a splitmix64 finalizer over the key modulo n
  (GRAB-ANNS-style bucketed routing).  Perfectly load-levelling under
  any key skew, but scans must broadcast to every shard and the shard
  count is fixed for the router's lifetime.

Routers are **immutable**: :meth:`RangeRouter.split` /
:meth:`RangeRouter.merge` return a *new* router with a bumped
``epoch``.  The service swaps the (router, shards) table atomically
under quiesce, so a request observes either the old table or the new
one, never a mix.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.keys import sorted_unique


def group_by_shard(shard_ids: np.ndarray, n_shards: int) -> List[np.ndarray]:
    """Per-shard index arrays (positions into the scattered batch).

    ``np.concatenate([batch[g] for g in groups])`` is the scattered
    batch; scattering back through the same index arrays restores
    arrival order exactly (the gather step of scatter/gather).
    """
    ids = np.asarray(shard_ids)
    return [np.flatnonzero(ids == s) for s in range(n_shards)]


class RangeRouter:
    """n-1 ascending cut keys -> n contiguous key ranges."""

    kind = "range"

    def __init__(self, cuts: Sequence[int], dtype=np.uint64,
                 epoch: int = 0):
        self.cuts = np.asarray(list(cuts), dtype=dtype)
        if len(self.cuts) > 1 and not np.all(self.cuts[:-1] < self.cuts[1:]):
            raise ValueError("range cuts must be strictly ascending")
        self.epoch = int(epoch)

    @property
    def n_shards(self) -> int:
        return len(self.cuts) + 1

    @classmethod
    def from_keys(cls, keys: np.ndarray, n_shards: int,
                  epoch: int = 0) -> "RangeRouter":
        """Equi-depth cuts from a key sample: each shard starts with
        ~len(keys)/n of the sampled keys."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        keys = np.asarray(keys)
        if n_shards == 1:
            return cls((), dtype=keys.dtype, epoch=epoch)
        if len(keys) < n_shards:
            raise ValueError(
                f"cannot cut {len(keys)} keys into {n_shards} ranges"
            )
        sk = sorted_unique(keys)
        pos = (np.arange(1, n_shards) * len(sk)) // n_shards
        cuts = sorted_unique(sk[pos])
        return cls(cuts, dtype=keys.dtype, epoch=epoch)

    def shard_of(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard of every key (vectorised)."""
        return np.searchsorted(self.cuts, np.asarray(keys), side="right")

    def shard_span(self, lo: int, hi: int) -> Tuple[int, int]:
        """Inclusive shard range a scan ``[lo, hi]`` intersects."""
        first = int(np.searchsorted(self.cuts, lo, side="right"))
        last = int(np.searchsorted(self.cuts, hi, side="right"))
        return first, last

    def shard_bounds(self, sid: int) -> Tuple[int, int]:
        """Inclusive key bounds shard ``sid`` owns (clamped to the
        dtype's domain)."""
        info = np.iinfo(self.cuts.dtype)
        lo = int(self.cuts[sid - 1]) if sid > 0 else int(info.min)
        hi = (int(self.cuts[sid]) - 1 if sid < len(self.cuts)
              else int(info.max))
        return lo, hi

    def split(self, sid: int, cut: int) -> "RangeRouter":
        """A new router with shard ``sid`` split at ``cut`` (the first
        key of the new right half)."""
        lo, hi = self.shard_bounds(sid)
        if not lo < cut <= hi:
            raise ValueError(
                f"cut {cut} outside shard {sid}'s splittable range "
                f"({lo}, {hi}]"
            )
        cuts = np.insert(self.cuts, sid, np.asarray(cut, self.cuts.dtype))
        return RangeRouter(cuts, dtype=self.cuts.dtype,
                           epoch=self.epoch + 1)

    def merge(self, sid: int) -> "RangeRouter":
        """A new router with shards ``sid`` and ``sid + 1`` merged."""
        if not 0 <= sid < len(self.cuts):
            raise ValueError(
                f"no right neighbour to merge shard {sid} with"
            )
        cuts = np.delete(self.cuts, sid)
        return RangeRouter(cuts, dtype=self.cuts.dtype,
                           epoch=self.epoch + 1)

    def __repr__(self) -> str:
        return (f"RangeRouter(shards={self.n_shards}, "
                f"epoch={self.epoch})")


def _splitmix64(keys: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a cheap, well-mixed 64-bit hash."""
    k = np.asarray(keys).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        k ^= k >> np.uint64(30)
        k *= np.uint64(0xBF58476D1CE4E5B9)
        k ^= k >> np.uint64(27)
        k *= np.uint64(0x94D049BB133111EB)
        k ^= k >> np.uint64(31)
    return k


class HashRouter:
    """splitmix64(key) mod n — skew-proof, scan-broadcasting."""

    kind = "hash"

    def __init__(self, n_shards: int, epoch: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self._n = int(n_shards)
        self.epoch = int(epoch)

    @property
    def n_shards(self) -> int:
        return self._n

    def shard_of(self, keys: np.ndarray) -> np.ndarray:
        return (_splitmix64(keys) % np.uint64(self._n)).astype(np.int64)

    def shard_span(self, lo: int, hi: int) -> Tuple[int, int]:
        """Hash placement is order-free: every scan touches all
        shards."""
        return 0, self._n - 1

    def __repr__(self) -> str:
        return f"HashRouter(shards={self._n}, epoch={self.epoch})"
