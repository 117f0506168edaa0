"""The keyspace-partitioned multi-tenant index service.

:class:`IndexService` fronts N :class:`~repro.service.shard.Shard`\\ s
behind a :mod:`~repro.service.router` table.  Every request batch is
quota-charged (per-tenant token bucket), scattered to the owning
shards, executed under each shard's admission window, and gathered
back in arrival order — bit-identical to one unsharded tree over the
merged keyspace, because every key is owned by exactly one shard and
the per-shard engines are themselves bit-identical under batching.

Topology changes are online.  ``split_shard`` snapshots the hot shard
(best effort — an injected storage fault costs the snapshot, never the
split), partitions its contents at a traffic-aware cut, bulk-loads two
child shards (controllers warm-started from the parent's committed
split), and swaps the (router, shards) table atomically: a concurrent
reader sees either the old table or the new one, never a mix.
``merge_shards`` is the reverse.  Updates serialize against topology
changes through the service write lock; reads drain through the
parent's quiesce window.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import nearest_rank_index
from repro.faults.plan import FaultPlan
from repro.keys import sorted_pairs
from repro.obs import NULL_OBS
from repro.platform.configs import MachineConfig
from repro.service.admission import AdmissionPolicy
from repro.service.quota import QuotaConfig, TenantQuotas
from repro.service.router import (
    HashRouter,
    RangeRouter,
    group_by_shard,
)
from repro.service.shard import Shard


@dataclass
class ServiceConfig:
    """Declarative shape of an :class:`IndexService`."""

    n_shards: int = 4
    #: "range" (scan-local, splittable) or "hash" (skew-proof)
    router: str = "range"
    kind: str = "hb-regular"
    key_bits: int = 64
    bucket_size: Optional[int] = None
    #: per-shard adaptive controllers (independent drift)
    adaptive: bool = False
    #: GPU fault drill: per-shard derived injector namespaces
    fault_plan: Optional[FaultPlan] = None
    queue_capacity: int = 4096
    admission: AdmissionPolicy = AdmissionPolicy.BLOCK
    queue_timeout_s: Optional[float] = None
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    machine: Optional[MachineConfig] = None
    #: rebalance thresholds: a shard serving more than ``hot_share`` of
    #: recent traffic splits; two adjacent shards together under
    #: ``cold_share`` merge
    hot_share: float = 0.5
    cold_share: float = 0.1
    min_rebalance_ops: int = 1024
    max_shards: int = 16


class LatencyRecorder:
    """Service-side batch latency histogram (wall clock, ns).

    Percentiles use the ceil-based nearest-rank
    (:func:`repro.core.pipeline.nearest_rank_index`) — the same fixed
    method the pipeline model reports, so a service p99 and a pipeline
    p99 mean the same statistic.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._lat_ns: List[int] = []
        self._ops = 0
        self._busy_ns = 0

    def record(self, ns: int, ops: int) -> None:
        with self._lock:
            self._lat_ns.append(int(ns))
            self._ops += ops
            self._busy_ns += int(ns)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            lats = sorted(self._lat_ns)
            ops, busy = self._ops, self._busy_ns
        if not lats:
            return {"batches": 0, "ops": 0, "p50_ns": 0.0, "p95_ns": 0.0,
                    "p99_ns": 0.0, "throughput_ops_s": 0.0,
                    "percentile_method": "ceil_nearest_rank"}
        return {
            "batches": len(lats),
            "ops": ops,
            "p50_ns": float(lats[nearest_rank_index(50, len(lats))]),
            "p95_ns": float(lats[nearest_rank_index(95, len(lats))]),
            "p99_ns": float(lats[nearest_rank_index(99, len(lats))]),
            "throughput_ops_s": ops / (busy / 1e9) if busy else 0.0,
            "percentile_method": "ceil_nearest_rank",
        }


class IndexService:
    """N exclusive shards behind one router, served scatter/gather."""

    def __init__(self, router, shards: List[Shard],
                 config: ServiceConfig, quotas: TenantQuotas,
                 obs=None, snapshot_manager=None):
        if router.n_shards != len(shards):
            raise ValueError(
                f"router covers {router.n_shards} shards, got "
                f"{len(shards)}"
            )
        self.config = config
        self.quotas = quotas
        self.obs = obs if obs is not None else NULL_OBS
        self.snapshots = snapshot_manager
        #: the atomically-swapped topology: readers grab the tuple once
        #: per request and never observe a half-applied change
        self._table: Tuple[object, List[Shard]] = (router, list(shards))
        #: serializes updates against split/merge
        self._write_lock = threading.RLock()
        self._next_sid = max((s.sid for s in shards), default=-1) + 1
        self.latency = LatencyRecorder()
        self.splits = 0
        self.merges = 0
        self.snapshot_failures = 0
        #: per-position op counts at the last rebalance decision
        self._rebalance_base: Dict[int, int] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, keys, values, config: Optional[ServiceConfig] = None,
              obs=None, snapshot_manager=None) -> "IndexService":
        """Partition ``(keys, values)`` and stand the service up.

        The pairs are sorted once, here (not at all when the keys are
        already strictly increasing): range shards are then contiguous
        slices, and no shard's build sorts again.
        """
        config = config or ServiceConfig()
        keys, values = sorted_pairs(np.asarray(keys), np.asarray(values))
        if config.router == "range":
            router = RangeRouter.from_keys(keys, config.n_shards)
            bounds = np.concatenate(
                ([0], np.searchsorted(keys, router.cuts), [len(keys)])
            )
            parts = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        elif config.router == "hash":
            router = HashRouter(config.n_shards)
            parts = group_by_shard(router.shard_of(keys), router.n_shards)
        else:
            raise ValueError(f"unknown router kind: {config.router!r}")
        shards = [
            cls._make_shard(pos, keys[part], values[part], config, obs)
            for pos, part in enumerate(parts)
        ]
        quotas = config.quota.build()
        return cls(router, shards, config, quotas, obs=obs,
                   snapshot_manager=snapshot_manager)

    @staticmethod
    def _make_shard(sid: int, keys, values, config: ServiceConfig,
                    obs, warm_split=None) -> Shard:
        return Shard(
            sid, keys, values,
            kind=config.kind,
            machine=config.machine,
            key_bits=config.key_bits,
            bucket_size=config.bucket_size,
            adaptive=config.adaptive,
            warm_split=warm_split,
            fault_plan=config.fault_plan,
            queue_capacity=config.queue_capacity,
            policy=config.admission,
            queue_timeout_s=config.queue_timeout_s,
            obs=obs,
        )

    # -- topology accessors ---------------------------------------------

    @property
    def router(self):
        return self._table[0]

    @property
    def shards(self) -> List[Shard]:
        return self._table[1]

    @property
    def n_shards(self) -> int:
        return self._table[0].n_shards

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def advance(self, seconds: float) -> None:
        """Deterministic quota refill (manual clock)."""
        self.quotas.advance(seconds)

    # -- serving --------------------------------------------------------

    def _spec(self):
        return self.shards[0].tree.spec

    def lookup_batch(self, queries: Sequence[int],
                     tenant: str = "default") -> np.ndarray:
        """Scatter/gather point lookups; results in arrival order."""
        router, shards = self._table
        q = self._spec().coerce(queries)
        self.quotas.charge(tenant, len(q))
        t0 = time.perf_counter_ns()
        with self.obs.span("service.lookup", tenant=tenant,
                           queries=len(q), epoch=router.epoch):
            groups = group_by_shard(router.shard_of(q), router.n_shards)
            out: Optional[np.ndarray] = None
            for pos, g in enumerate(groups):
                if len(g) == 0:
                    continue
                res = shards[pos].lookup_batch(q[g])
                if out is None:
                    out = np.empty(len(q), dtype=res.dtype)
                out[g] = res
        if out is None:
            out = np.empty(0, dtype=self._spec().dtype)
        self.latency.record(time.perf_counter_ns() - t0, len(q))
        self.obs.count("live.service.lookups", len(q), tenant=tenant)
        return out

    def run_scans(self, los: Sequence[int], his: Sequence[int],
                  tenant: str = "default") -> list:
        """Scatter/gather range scans; per-scan rows in key order.

        Range routing clips each scan to the owning shards' spans and
        stitches the per-shard rows back in shard (= key) order; hash
        routing broadcasts and merge-sorts, since a hashed keyspace
        gives a scan no locality to exploit.
        """
        router, shards = self._table
        lo_arr = self._spec().coerce(los)
        hi_arr = self._spec().coerce(his)
        if len(lo_arr) != len(hi_arr):
            raise ValueError("run_scans needs matching lo/hi arrays")
        self.quotas.charge(tenant, len(lo_arr))
        t0 = time.perf_counter_ns()
        with self.obs.span("service.scan", tenant=tenant,
                           scans=len(lo_arr), epoch=router.epoch):
            parts: List[List[list]] = [[] for _ in range(len(lo_arr))]
            for pos in range(router.n_shards):
                idx, plos, phis = [], [], []
                for i in range(len(lo_arr)):
                    first, last = router.shard_span(int(lo_arr[i]),
                                                    int(hi_arr[i]))
                    if not first <= pos <= last:
                        continue
                    lo, hi = int(lo_arr[i]), int(hi_arr[i])
                    if isinstance(router, RangeRouter):
                        slo, shi = router.shard_bounds(pos)
                        lo, hi = max(lo, slo), min(hi, shi)
                    idx.append(i)
                    plos.append(lo)
                    phis.append(hi)
                if not idx:
                    continue
                rows = shards[pos].run_scans(plos, phis)
                for i, r in zip(idx, rows):
                    parts[i].append(r)
            if isinstance(router, RangeRouter):
                # shard order == key order: concatenate
                out = [sum(p, []) for p in parts]
            else:
                # broadcast: merge disjoint per-shard runs by key
                out = [sorted((row for p in parts_i for row in p))
                       for parts_i in parts]
        self.latency.record(time.perf_counter_ns() - t0, len(lo_arr))
        self.obs.count("live.service.scans", len(lo_arr), tenant=tenant)
        return out

    def apply_updates(self, keys: Sequence[int], values: Sequence[int],
                      deletes: Sequence[int] = (),
                      tenant: str = "default") -> None:
        """Scatter an update batch; within-shard arrival order is
        preserved, so repeated keys land exactly as unsharded."""
        spec = self._spec()
        k = spec.coerce(keys)
        v = np.asarray(values, dtype=spec.dtype)
        d = spec.coerce(deletes)
        if len(k) != len(v):
            raise ValueError("keys and values must have equal length")
        self.quotas.charge(tenant, len(k) + len(d))
        t0 = time.perf_counter_ns()
        with self._write_lock:
            router, shards = self._table
            with self.obs.span("service.update", tenant=tenant,
                               ops=len(k) + len(d), epoch=router.epoch):
                kg = group_by_shard(router.shard_of(k), router.n_shards)
                dg = group_by_shard(router.shard_of(d), router.n_shards)
                for pos in range(router.n_shards):
                    if len(kg[pos]) == 0 and len(dg[pos]) == 0:
                        continue
                    shards[pos].apply_updates(k[kg[pos]], v[kg[pos]],
                                              d[dg[pos]])
        self.latency.record(time.perf_counter_ns() - t0,
                            len(k) + len(d))
        self.obs.count("live.service.update_ops", len(k) + len(d),
                       tenant=tenant)

    # -- online topology changes ----------------------------------------

    def split_shard(self, pos: int,
                    cut: Optional[int] = None) -> Tuple[int, int]:
        """Split the shard at position ``pos`` online.

        Protocol: quiesce the shard → read its contents once → pick
        ``cut`` (default: the shard's traffic-aware suggestion) →
        best-effort snapshot (a storage fault is contained: counted,
        split proceeds from the live contents) → partition at ``cut``
        → bulk-load two children with warm-started controllers → swap
        the table atomically.  Returns the two child positions
        ``(pos, pos + 1)``.
        """
        if not isinstance(self.router, RangeRouter):
            raise ValueError("only a range-routed service can split")
        if self._split(pos, cut) is None:
            raise ValueError(
                f"shard at position {pos} is too small to split"
            )
        return pos, pos + 1

    def _split(self, pos: int, cut: Optional[int]) -> Optional[int]:
        """:meth:`split_shard`'s body; returns the cut, or None with
        nothing changed when the shard is too small to split."""
        with self._write_lock:
            router, shards = self._table
            parent = shards[pos]
            with self.obs.span("service.split", pos=pos,
                               sid=parent.sid):
                with parent.quiesce():
                    keys, values = parent.contents()
                    if cut is None:
                        cut = parent.suggest_cut(keys)
                    if cut is None:
                        return None
                    if self.snapshots is not None:
                        if parent.snapshot_to(self.snapshots) is None:
                            self.snapshot_failures += 1
                            self.obs.count(
                                "live.service.snapshot_failures")
                new_router = router.split(pos, cut)  # validates cut
                left = keys < np.asarray(cut, dtype=keys.dtype)
                warm = (parent.controller.split()
                        if parent.controller else None)
                child_l = self._make_shard(
                    self._next_sid, keys[left], values[left],
                    self.config, parent.obs if parent.obs is not NULL_OBS
                    else None, warm_split=warm,
                )
                child_r = self._make_shard(
                    self._next_sid + 1, keys[~left], values[~left],
                    self.config, parent.obs if parent.obs is not NULL_OBS
                    else None, warm_split=warm,
                )
                self._next_sid += 2
                new_shards = (shards[:pos] + [child_l, child_r]
                              + shards[pos + 1:])
                self._table = (new_router, new_shards)
                self.splits += 1
                self._rebalance_base = {}
                self.obs.emit("service_split", pos=pos, cut=int(cut),
                              epoch=new_router.epoch,
                              left=len(child_l), right=len(child_r))
        return cut

    def merge_shards(self, pos: int) -> int:
        """Merge the shards at positions ``pos`` and ``pos + 1``."""
        if not isinstance(self.router, RangeRouter):
            raise ValueError("only a range-routed service can merge")
        with self._write_lock:
            router, shards = self._table
            left, right = shards[pos], shards[pos + 1]
            with self.obs.span("service.merge", pos=pos,
                               sids=(left.sid, right.sid)):
                with left.quiesce(), right.quiesce():
                    lk, lv = left.contents()
                    rk, rv = right.contents()
                # adjacent ranges: left keys all precede right keys
                keys = np.concatenate([lk, rk])
                values = np.concatenate([lv, rv])
                warm = (left.controller.split()
                        if left.controller else None)
                child = self._make_shard(
                    self._next_sid, keys, values, self.config,
                    left.obs if left.obs is not NULL_OBS else None,
                    warm_split=warm,
                )
                self._next_sid += 1
                new_router = router.merge(pos)
                new_shards = shards[:pos] + [child] + shards[pos + 2:]
                self._table = (new_router, new_shards)
                self.merges += 1
                self._rebalance_base = {}
                self.obs.emit("service_merge", pos=pos,
                              epoch=new_router.epoch, n=len(child))
        return pos

    def maybe_rebalance(self) -> Optional[str]:
        """One step of drift-driven topology maintenance.

        Looks at each shard's share of the traffic served since the
        last topology change: a shard over ``hot_share`` splits (at
        its traffic-aware cut); an adjacent pair together under
        ``cold_share`` merges.  Returns a description of the action
        taken, or None.
        """
        if not isinstance(self.router, RangeRouter):
            return None
        shards = self.shards
        served = [s.served_ops - self._rebalance_base.get(i, 0)
                  for i, s in enumerate(shards)]
        total = sum(served)
        if total < self.config.min_rebalance_ops:
            return None
        shares = [s / total for s in served]
        hot = int(np.argmax(shares))
        if (shares[hot] > self.config.hot_share
                and len(shards) < self.config.max_shards
                and self._split(hot, None) is not None):
            return f"split position {hot} (share {shares[hot]:.2f})"
        if len(shards) > 1:
            pair_shares = [shares[i] + shares[i + 1]
                           for i in range(len(shares) - 1)]
            cold = int(np.argmin(pair_shares))
            if pair_shares[cold] < self.config.cold_share:
                self.merge_shards(cold)
                return (f"merged positions {cold},{cold + 1} "
                        f"(share {pair_shares[cold]:.2f})")
        self._rebalance_base = {i: s.served_ops
                                for i, s in enumerate(shards)}
        return None

    # -- accounting -----------------------------------------------------

    def contents(self):
        """(keys, values) of the whole service, in key order."""
        router, shards = self._table
        parts = [s.contents() for s in shards]
        keys = np.concatenate([p[0] for p in parts])
        values = np.concatenate([p[1] for p in parts])
        if not isinstance(router, RangeRouter):
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
        return keys, values

    def stats(self) -> Dict[str, object]:
        router, shards = self._table
        return {
            "router": {"kind": router.kind, "epoch": router.epoch,
                       "n_shards": router.n_shards},
            "n_keys": sum(len(s) for s in shards),
            "splits": self.splits,
            "merges": self.merges,
            "snapshot_failures": self.snapshot_failures,
            "latency": self.latency.summary(),
            "shards": [dict(position=i, **s.stats().snapshot())
                       for i, s in enumerate(shards)],
            "tenants": {
                t: dataclasses.asdict(st)
                for t, st in self.quotas.stats().items()
            },
        }

    def __repr__(self) -> str:
        router, shards = self._table
        return (f"IndexService(shards={len(shards)}, "
                f"router={router.kind!r}, n={len(self)}, "
                f"epoch={router.epoch})")
