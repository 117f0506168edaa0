"""One shard of the multi-tenant index service.

A :class:`Shard` is a vertical slice of the whole stack, owned
exclusively: its own :class:`~repro.core.hbtree.HBPlusTree` (or
implicit tree) over its own simulated GPU device, its own
:class:`~repro.core.batching.BatchingEngine`, its own
:class:`~repro.core.adaptive.AdaptiveController` (so the (D, R) split
drifts with *this* shard's traffic, independently of its siblings),
its own :class:`~repro.faults.FaultInjector` namespace (a per-shard
derived seed: shard 3's fault schedule never changes when shard 2
takes an extra batch), and its own bounded admission window.

Every shard reads through its one engine.  Fault-drilled shards
(``fault_plan`` given) must be ``hb-regular``; on them, and on
mode-adaptive regular shards, a
:class:`~repro.core.resilience.ResilientHBPlusTree` installs its
policy on that engine — lookups and scans stay correct under injected
GPU faults, which is what lets the service promise bit-identity even
during a fault drill.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.batching import BatchingEngine
from repro.core.resilience import ResilientHBPlusTree
from repro.core.update import SyncUpdater
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.lifecycle.bulkload import bulk_load
from repro.obs import NULL_OBS
from repro.obs.stats import Stats
from repro.platform.configs import MachineConfig, machine_m1
from repro.service.admission import AdmissionPolicy, ShardQueue

#: mixes the shard id into the service fault seed so every shard draws
#: from a disjoint CRN stream (same idea as the injector's per-site
#: streams, one level up)
_SHARD_SEED_SALT = 0x9E3779B97F4A7C15


def shard_fault_plan(plan: FaultPlan, sid: int) -> FaultPlan:
    """The service plan re-seeded for one shard's private namespace."""
    derived = (plan.seed ^ ((sid + 1) * _SHARD_SEED_SALT)) & 0x7FFFFFFF
    return dataclasses.replace(plan, seed=derived)


@dataclass
class ShardStats(Stats):
    """One shard's lifetime serving accounting."""

    sid: int
    n_keys: int
    lookups: int
    scans: int
    update_ops: int
    batches: int
    admission: Dict[str, int]
    faults: int


class Shard:
    """An exclusively-owned keyspace slice with its own full stack."""

    def __init__(
        self,
        sid: int,
        keys: Sequence[int],
        values: Sequence[int],
        *,
        kind: str = "hb-regular",
        machine: Optional[MachineConfig] = None,
        key_bits: int = 64,
        bucket_size: Optional[int] = None,
        adaptive: bool = False,
        warm_split=None,
        fault_plan: Optional[FaultPlan] = None,
        queue_capacity: int = 4096,
        policy: AdmissionPolicy = AdmissionPolicy.BLOCK,
        queue_timeout_s: Optional[float] = None,
        obs=None,
    ):
        self.sid = int(sid)
        self.kind = kind
        self.machine = machine or machine_m1()
        self.key_bits = key_bits
        self.obs = obs if obs is not None else NULL_OBS
        self.tree = bulk_load(kind, keys, values, key_bits=key_bits,
                              machine=self.machine)
        if obs is not None and hasattr(self.tree, "attach_obs"):
            self.tree.attach_obs(obs)

        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            if kind != "hb-regular":
                raise ValueError(
                    "fault drills need hb-regular shards (the implicit "
                    "tree has no injector hook)"
                )
            self.injector = FaultInjector(shard_fault_plan(fault_plan,
                                                           self.sid))

        # adaptivity: the implicit tree's (D, R) controller rides the
        # engine; the regular tree's {hybrid, cpu-only} mode controller
        # rides the resilient wrapper.  Either way the controller is
        # private to this shard and drifts with this shard's traffic.
        self.controller: Optional[AdaptiveController] = None
        engine_balancer = None
        resilient_adaptive = None
        wants_resilient = self.injector is not None
        if adaptive:
            if warm_split is not None:
                self.controller = AdaptiveController.warm_start(
                    self.tree, warm_split, bucket_size=bucket_size,
                    obs=obs,
                )
            else:
                self.controller = AdaptiveController.for_tree(
                    self.tree, bucket_size=bucket_size, obs=obs,
                )
            if self.tree.supports_split_descent:
                engine_balancer = self.controller
            else:
                resilient_adaptive = self.controller
                wants_resilient = True

        self.engine = BatchingEngine(self.tree, bucket_size=bucket_size,
                                     balancer=engine_balancer)
        self.resilient: Optional[ResilientHBPlusTree] = None
        if wants_resilient:
            # the policy runs inside this shard's one engine
            self.resilient = ResilientHBPlusTree(
                self.tree, injector=self.injector,
                adaptive=resilient_adaptive, engine=self.engine,
            )

        self.queue = ShardQueue(self.sid, queue_capacity, policy,
                                timeout_s=queue_timeout_s)
        self._count_lock = threading.Lock()
        self._lookups = 0
        self._scans = 0
        self._update_ops = 0
        self._batches = 0

    # -- serving --------------------------------------------------------

    def _count(self, lookups: int = 0, scans: int = 0,
               update_ops: int = 0) -> None:
        with self._count_lock:
            self._lookups += lookups
            self._scans += scans
            self._update_ops += update_ops
            self._batches += 1

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Serve one scattered lookup sub-batch (admission included)."""
        with self.queue.admit(len(queries)):
            with self.obs.span("shard.lookup", sid=self.sid,
                               queries=len(queries)):
                out = self.engine.lookup_batch(queries)
        self._count(lookups=len(queries))
        return out

    def run_scans(self, los: Sequence[int], his: Sequence[int]) -> list:
        """Serve one scattered scan sub-batch; per-scan ``(key, value)``
        rows in key order."""
        with self.queue.admit(len(los)):
            with self.obs.span("shard.scan", sid=self.sid,
                               scans=len(los)):
                out = self.engine.run_scans(los, his)
        self._count(scans=len(los))
        return out

    def apply_updates(self, keys: Sequence[int], values: Sequence[int],
                      deletes: Sequence[int] = ()) -> None:
        """Absorb this shard's slice of an update batch (under the
        tree's serve lock, so ``quiesce()`` parks writers too)."""
        ops = len(keys) + len(deletes)
        with self.queue.admit(ops):
            with self.obs.span("shard.update", sid=self.sid, ops=ops), \
                    self.tree.serve_lock:
                if self.kind == "hb-implicit":
                    self.tree.merge_rebuild(keys, values, deletes)
                elif self.resilient is not None:
                    self.resilient.apply_updates(keys, values, deletes,
                                                 method="sync")
                else:
                    SyncUpdater(self.tree).apply(keys, values, deletes)
        self._count(update_ops=ops)

    # -- lifecycle ------------------------------------------------------

    def contents(self):
        """(keys, values) this shard stores, in key order."""
        return self.tree.stored_items()

    def __len__(self) -> int:
        return len(self.tree)

    def quiesce(self):
        """Park new lookups, scans and updates and drain in-flight ones
        (the engine's serve lock, which every serving path takes)."""
        return self.engine.quiesce()

    def snapshot_to(self, manager):
        """Snapshot this shard's tree (quiesced) into ``manager``."""
        split = self.controller.split() if self.controller else None
        return manager.save_engine(self.engine, split=split)

    def suggest_cut(self, keys: np.ndarray) -> Optional[int]:
        """A split point for this shard, given its stored ``keys`` (the
        caller's read of :meth:`contents`): the median of the traffic
        the controller last sampled (hot-spot aware), else the median
        stored key.  None when the shard is too small to split."""
        if len(keys) < 2:
            return None
        lo = int(keys[0])
        sample = getattr(self.controller, "_last_sample", None)
        if sample is not None and len(sample) >= 2:
            cut = int(np.median(np.asarray(sample)))
            if cut > lo and np.any(keys >= cut) and np.any(keys < cut):
                return cut
        cut = int(keys[len(keys) // 2])
        if cut <= lo:
            above = keys[keys > lo]
            if len(above) == 0:
                return None
            cut = int(above[0])
        return cut

    # -- accounting -----------------------------------------------------

    @property
    def served_ops(self) -> int:
        with self._count_lock:
            return self._lookups + self._scans + self._update_ops

    def stats(self) -> ShardStats:
        faults = 0
        if self.injector is not None:
            faults = self.injector.stats.total_faults
        with self._count_lock:
            return ShardStats(
                sid=self.sid,
                n_keys=len(self.tree),
                lookups=self._lookups,
                scans=self._scans,
                update_ops=self._update_ops,
                batches=self._batches,
                admission=self.queue.stats.snapshot(),
                faults=faults,
            )

    def __repr__(self) -> str:
        return (f"Shard(sid={self.sid}, kind={self.kind!r}, "
                f"n={len(self.tree)}, served={self.served_ops})")
