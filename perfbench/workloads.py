"""The three named service workloads and the reference map that checks them.

Every input is derived from the run's ``--seed``: the stored keys and
values, then batch ``i`` of the stream, which is drawn from a generator
seeded with ``(seed, i)`` against the reference map's state at that
point.  The same seed therefore yields the same batches, in the same
order, whatever the wall clock does; only how many of them fit in the
timed window varies.

The service under test receives only the generated arrays.  The
:class:`RefMap` is a host-side sorted map kept in arrival order: it is
updated by the same upserts and deletes, answers every lookup and scan
the service answers, and doubles as the host copy that the
``np.searchsorted`` floor runs over.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: the 64-bit key spec's not-found sentinel (``2**64 - 1``)
SENTINEL = np.uint64(np.iinfo(np.uint64).max)

#: stored keys and miss probes are drawn below this bound
KEY_LIMIT = 1 << 62

#: quota of every named tenant: charged on every batch, never exhausted
UNLIMITED_QUOTA = 1e18


@dataclass(frozen=True)
class Workload:
    """One named traffic mix against one service topology."""

    name: str
    why: str
    kind: str
    n_keys: int
    n_shards: int = 4
    adaptive: bool = False
    #: per-operation GPU fault probability (0 = no fault drill)
    fault_rate: float = 0.0
    #: seed of the drill's fault schedule; fixed, so every run's GPU
    #: fails at the same operations and the run seed varies only the
    #: traffic
    fault_seed: int = 7
    tenants: Tuple[str, ...] = ("default",)
    #: the batch kinds of one rotation, repeated for the whole stream
    rotation: Tuple[str, ...] = ("lookup",)
    lookup_hits: int = 4096
    lookup_misses: int = 512
    zipf_a: Optional[float] = None
    scans_per_batch: int = 16
    scan_tuples: int = 100
    upserts_per_batch: int = 96
    deletes_per_batch: int = 32
    #: batches served before timing starts (caches, lazy set-up)
    warmup_batches: int = 5
    #: modeled counts cover batches ``[warmup_batches, counted_until)``,
    #: a fixed window every run completes, so they repeat exactly
    counted_until: int = 100
    #: set-ups per run; ``setup_s`` reports their median
    setups: int = 3

    def params(self) -> Dict[str, object]:
        """The workload parameters recorded in every result."""
        params = dataclasses.asdict(self)
        del params["name"], params["why"]
        params["router"] = "range"
        params["load"] = "closed loop, one client, no extra threads"
        return params


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="lookup_uniform",
            why="distinct uniform keys over a tree larger than the LLC: "
                "per-key descent, leaf finish and sort/dedup dominate",
            kind="hb-regular",
            n_keys=1 << 20,
            warmup_batches=5,
            counted_until=105,
        ),
        Workload(
            name="lookup_zipf_tenants",
            why="small Zipf batches over three tenants: dedup collapses "
                "keys, so fixed per-batch service cost and adaptive "
                "reprofiles set latency",
            kind="hb-implicit",
            n_keys=1 << 20,
            adaptive=True,
            tenants=("alpha", "beta", "gamma"),
            lookup_hits=256,
            lookup_misses=0,
            zipf_a=1.3,
            warmup_batches=24,
            counted_until=424,
        ),
        Workload(
            name="mixed_rw_drill",
            why="lookups, scans and upsert/delete batches beside each "
                "other under a low-rate GPU fault drill",
            kind="hb-regular",
            n_keys=1 << 20,
            fault_rate=0.002,
            rotation=("lookup",) * 4 + ("scan",) + ("lookup",) * 4
            + ("update",),
            lookup_hits=224,
            lookup_misses=32,
            warmup_batches=10,
            counted_until=110,
        ),
    )
}


def make_dataset(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` distinct sorted keys and their values, from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    keys = np.unique(rng.integers(0, KEY_LIMIT, n + n // 64 + 16,
                                  dtype=np.uint64))
    while len(keys) < n:
        more = rng.integers(0, KEY_LIMIT, n, dtype=np.uint64)
        keys = np.unique(np.concatenate([keys, more]))
    keys = np.sort(rng.choice(keys, n, replace=False))
    values = rng.integers(0, KEY_LIMIT, n, dtype=np.uint64)
    return keys, values


class RefMap:
    """Sorted host-side reference map (the correctness oracle)."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys = np.asarray(keys, dtype=np.uint64).copy()
        self.values = np.asarray(values, dtype=np.uint64).copy()

    def __len__(self) -> int:
        return len(self.keys)

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """``np.searchsorted`` plus value gather: the functional floor."""
        idx = np.searchsorted(self.keys, queries)
        idx_c = np.minimum(idx, len(self.keys) - 1)
        found = self.keys[idx_c] == queries
        return np.where(found, self.values[idx_c], SENTINEL)

    def scan(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        a = int(np.searchsorted(self.keys, np.uint64(lo), side="left"))
        b = int(np.searchsorted(self.keys, np.uint64(hi), side="right"))
        return list(zip(self.keys[a:b].tolist(), self.values[a:b].tolist()))

    def apply(self, upk: np.ndarray, upv: np.ndarray,
              deletes: np.ndarray) -> None:
        """Upserts in arrival order (the last write of a key wins), then
        deletes — the order the service's update path applies them."""
        if len(upk):
            rev_keys, rev_first = np.unique(upk[::-1], return_index=True)
            last_vals = upv[::-1][rev_first]
            idx = np.searchsorted(self.keys, rev_keys)
            idx_c = np.minimum(idx, len(self.keys) - 1)
            present = (idx < len(self.keys)) & (self.keys[idx_c] == rev_keys)
            self.values[idx[present]] = last_vals[present]
            new = ~present
            self.keys = np.insert(self.keys, idx[new], rev_keys[new])
            self.values = np.insert(self.values, idx[new], last_vals[new])
        if len(deletes):
            idx = np.searchsorted(self.keys, deletes)
            idx_c = np.minimum(idx, len(self.keys) - 1)
            hit = (idx < len(self.keys)) & (self.keys[idx_c] == deletes)
            keep = np.ones(len(self.keys), dtype=bool)
            keep[idx[hit]] = False
            self.keys = self.keys[keep]
            self.values = self.values[keep]


@dataclass
class Batch:
    """One service call's inputs."""

    index: int
    kind: str
    tenant: str
    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    deletes: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    his: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))

    @property
    def ops(self) -> int:
        """Lookup keys, scans, or upserts plus deletes."""
        return len(self.keys) + len(self.deletes)


class BatchStream:
    """Batch ``i`` of a workload, drawn from ``(seed, i)`` and the
    reference map's state when it is drawn."""

    def __init__(self, workload: Workload, seed: int, ref: RefMap):
        self.w = workload
        self.seed = seed
        self.ref = ref
        #: a fixed permutation maps Zipf ranks onto stored keys, so the
        #: hot set spreads over every shard
        self._rank_to_key = np.random.default_rng([seed, 1]).permutation(
            len(ref)) if workload.zipf_a else None

    def batch(self, i: int) -> Batch:
        w = self.w
        rng = np.random.default_rng([self.seed, 2, i])
        kind = w.rotation[i % len(w.rotation)]
        tenant = w.tenants[i % len(w.tenants)]
        keys = self.ref.keys
        if kind == "lookup":
            if w.zipf_a:
                ranks = (rng.zipf(w.zipf_a, w.lookup_hits) - 1) % len(keys)
                hits = keys[self._rank_to_key[ranks]]
            else:
                hits = keys[rng.integers(0, len(keys), w.lookup_hits)]
            misses = rng.integers(0, KEY_LIMIT, w.lookup_misses,
                                  dtype=np.uint64)
            q = np.concatenate([hits, misses])
            return Batch(i, kind, tenant, keys=q[rng.permutation(len(q))])
        if kind == "scan":
            start = rng.integers(0, len(keys) - w.scan_tuples,
                                 w.scans_per_batch)
            los = keys[start]
            his = keys[start + w.scan_tuples - 1]
            return Batch(i, kind, tenant, keys=los, his=his)
        # update: overwrite existing keys, insert fresh ones, delete
        # other existing ones; all distinct, so no op depends on another
        n_new = w.upserts_per_batch // 2
        pick = rng.choice(len(keys), w.upserts_per_batch - n_new
                          + w.deletes_per_batch, replace=False)
        existing = keys[pick]
        fresh = rng.integers(0, KEY_LIMIT, n_new, dtype=np.uint64)
        fresh = fresh[~np.isin(fresh, existing)]
        upk = np.concatenate([existing[: len(pick) - w.deletes_per_batch],
                              fresh])
        upv = rng.integers(0, KEY_LIMIT, len(upk), dtype=np.uint64)
        order = rng.permutation(len(upk))
        return Batch(i, kind, tenant, keys=upk[order], values=upv[order],
                     deletes=existing[len(pick) - w.deletes_per_batch:])
