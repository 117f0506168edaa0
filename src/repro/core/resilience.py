"""Resilient heterogeneous execution for the regular HB+-tree.

The HB+-tree's hybrid search path assumes the GPU, the PCIe link and
the I-segment mirror are perfect.  This layer removes that assumption
while preserving the tree's one hard guarantee: **faults may cost time,
never correctness**.

Resilience is a policy the one bucket pipeline runs: the wrapper
installs itself on one :class:`~repro.core.batching.BatchingEngine`
over the same tree — the one passed as ``engine=`` (for example a
shard's, or one with its own bucket size or kernel), otherwise a
default one — and that engine calls it once per lookup call, scan
bucket and update batch.  The policy decides whether, how often and at
what modeled cost the engine's bucket loop runs, or serves the call
from the CPU instead; recovery probes run the same bucket loop.  It
runs the tree's own write and handles only a faulted mirror sync.  It
has no read or write entry of its own: callers use ``engine``.

Mechanisms (bottom-up):

* **retry with exponential backoff + jitter** for PCIe transfers
  (failures and timeouts), with every wasted nanosecond accounted;
* **bounded kernel timeout with relaunch** — a hung kernel is charged
  its watchdog budget and relaunched, a failed launch retried;
* **verification + targeted repair** of the I-segment mirror before
  every hybrid batch: the tree compares its device mirror with its own
  expected image (:meth:`HBPlusTree.verify_mirror`) and this layer
  re-uploads each corrupted node (:meth:`HBPlusTree.push_mirror_rows`)
  under the transfer retry policy; it holds no image of its own;
* **stale-mirror repair** — an interrupted sync leaves
  ``HBPlusTree.mirror_stale`` set; the mirror is re-uploaded before the
  GPU is allowed to serve again;
* **circuit breaker** — after repeated batch-level GPU failures the
  tree degrades to the CPU tree's own search path (the
  :class:`~repro.core.framework.HybridFramework` cpu-only mode /
  appendix B.1), then periodically probes the GPU and recovers by
  re-mirroring the I-segment.

All modeled time (base bucket costs, backoff, watchdog budgets, repair
transfers) accumulates in :class:`ResilienceStats`, from which the
fault-rate sweep in ``benchmarks/bench_fault_resilience.py`` derives
its throughput numbers.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.update import UpdateStats
from repro.faults import (
    FaultError,
    FaultInjector,
    KernelHang,
    KernelLaunchFault,
    TransferTimeout,
)
from repro.obs import NULL_OBS
from repro.obs.stats import Stats
from repro.platform.costmodel import (
    CpuCostModel,
    HYBRID_STAGE_OVERHEAD_NS,
    hybrid_bucket_costs,
)


class GpuUnavailable(RuntimeError):
    """Raised internally when retries are exhausted; the circuit
    breaker translates it into CPU-only degradation."""


#: per retried operation: the faults a retry absorbs, and the one of
#: them that is a timeout (charged its watchdog budget)
RETRIED_FAULTS = {
    "transfer": (FaultError, TransferTimeout),
    "kernel": ((KernelLaunchFault, KernelHang), KernelHang),
}


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer (all times in ns)."""

    #: attempts per transfer (first try + retries)
    max_transfer_retries: int = 4
    #: attempts per kernel launch
    max_kernel_retries: int = 3
    #: base backoff before the first retry
    backoff_base_ns: float = 2_000.0
    backoff_multiplier: float = 2.0
    #: jitter fraction added on top of the deterministic backoff
    backoff_jitter: float = 0.25
    #: watchdog budget charged when a transfer times out
    transfer_timeout_ns: float = 50_000.0
    #: watchdog budget charged when a kernel hangs
    kernel_timeout_ns: float = 100_000.0
    #: consecutive batch-level GPU failures that open the breaker
    breaker_threshold: int = 3
    #: degraded batches between recovery probes
    probe_interval: int = 16
    #: flat watchdog budget charged for a *failed* recovery probe: the
    #: probe runs in a reserved side slot, so its cost is the slot, not
    #: however quickly the GPU happened to die this time (this keeps the
    #: degraded-mode overhead independent of the fault rate)
    probe_budget_ns: float = 150_000.0
    #: fixed handling cost charged per caught fault (interrupt + error
    #: path bookkeeping); also what makes throughput decay monotone in
    #: the fault rate — the fault *count* grows with the rate even when
    #: the service-mode mix does not
    fault_overhead_ns: float = 1_000.0
    #: EWMA smoothing of the measured per-query hybrid cost
    ema_alpha: float = 0.4
    #: open the breaker when the hybrid EWMA exceeds ``margin`` times
    #: the CPU-only per-query cost (economic degradation: limping on a
    #: faulty GPU must never be slower than not using it)
    degrade_margin: float = 1.0
    #: hybrid batches measured before economic degradation may trigger
    min_ema_samples: int = 2
    #: seed of the backoff-jitter stream (independent of the fault plan)
    seed: int = 0

    def backoff_ns(self, attempt: int, jitter_u: float) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        base = self.backoff_base_ns * self.backoff_multiplier ** attempt
        return base * (1.0 + self.backoff_jitter * jitter_u)


@dataclass
class ResilienceStats(Stats):
    """Every fault/retry/degradation event, counted; plus modeled time."""

    batches: int = 0
    served_hybrid: int = 0
    served_cpu: int = 0
    #: total modeled serving time (base costs + every penalty below)
    served_ns: float = 0.0
    #: modeled time lost to faults (backoff + watchdogs + repairs);
    #: already included in ``served_ns``
    penalty_ns: float = 0.0
    backoff_ns: float = 0.0
    timeout_ns: float = 0.0
    repair_transfer_ns: float = 0.0
    transfer_retries: int = 0
    kernel_retries: int = 0
    mirror_refreshes: int = 0
    checksum_failures: int = 0
    repaired_nodes: int = 0
    gpu_batch_failures: int = 0
    degradations: int = 0
    #: degradations triggered by the cost comparison (limping hybrid
    #: costlier than CPU-only), a subset of ``degradations``
    economic_degradations: int = 0
    #: individual injected faults absorbed by a retry/repair path
    faults_handled: int = 0
    probes: int = 0
    recoveries: int = 0
    snapshots: int = 0
    snapshot_failures: int = 0

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of all counters, the modeled times rounded to 3
        decimals (tables and replay goldens compare them exactly)."""
        return {name: round(value, 3) if isinstance(value, float) else value
                for name, value in super().snapshot().items()}

    @property
    def served_queries(self) -> int:
        return self.served_hybrid + self.served_cpu

    def throughput_qps(self) -> float:
        """Modeled end-to-end throughput over everything served."""
        if self.served_ns <= 0:
            return float("inf") if self.served_queries else 0.0
        return self.served_queries * 1e9 / self.served_ns


class CircuitBreaker:
    """Counts consecutive GPU failures; opens after ``threshold``."""

    def __init__(self, threshold: int, probe_interval: int):
        if threshold < 1 or probe_interval < 1:
            raise ValueError("threshold and probe_interval must be >= 1")
        self.threshold = threshold
        self.probe_interval = probe_interval
        self.consecutive_failures = 0
        self.open = False
        self.degraded_batches = 0

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count one failure; returns True when this opened the circuit."""
        self.consecutive_failures += 1
        if not self.open and self.consecutive_failures >= self.threshold:
            self.open = True
            self.degraded_batches = 0
            return True
        return False

    def trip(self) -> None:
        """Open the circuit directly (economic degradation)."""
        self.open = True
        self.consecutive_failures = 0
        self.degraded_batches = 0

    def note_degraded_batch(self) -> bool:
        """Count one degraded batch; True when a probe is due."""
        self.degraded_batches += 1
        return self.degraded_batches % self.probe_interval == 0

    def close(self) -> None:
        self.open = False
        self.consecutive_failures = 0
        self.degraded_batches = 0


class ResilientHBPlusTree:
    """Fault-tolerant serving policy for a regular :class:`HBPlusTree`.

    The engine's lookups and scans run under this policy
    (:meth:`serve_lookups`, :meth:`serve_scan_bucket`): through the
    bucket loop while the GPU is healthy and from the CPU-only path
    when the circuit breaker is open, repairing the mirror and probing
    for recovery along the way.  The engine's update batches run
    through :meth:`serve_updates`, which restores mirror consistency no
    matter where a fault interrupts the sync.  The engine holds the
    tree's serve lock around every hook, so its ``quiesce()`` parks
    reads and writes alike.
    """

    def __init__(
        self,
        tree: HBPlusTree,
        injector: Optional[FaultInjector] = None,
        config: Optional[ResilienceConfig] = None,
        engine=None,
        adaptive=None,
    ):
        self.tree = tree
        #: the engine that runs this policy — ``engine=`` (over the
        #: *same* tree) or a plain batch engine
        if engine is not None and engine.tree is not tree:
            raise ValueError("the engine must wrap the same HBPlusTree")
        self.engine = engine if engine is not None else BatchingEngine(tree)
        self.config = config or ResilienceConfig()
        self.stats = ResilienceStats()
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.probe_interval
        )
        if injector is not None:
            tree.attach_injector(injector)
        self.injector = tree.injector
        self._jitter_rng = np.random.default_rng(
            [self.config.seed & 0x7FFFFFFF, 0x0BAC0FF]
        )
        #: EWMA of the measured per-query cost of hybrid service,
        #: penalties included; compared against the CPU-only cost to
        #: decide whether limping on a faulty GPU is still worth it
        self._hybrid_cost_ema: Optional[float] = None
        self._ema_samples = 0
        #: optional :class:`repro.core.adaptive.AdaptiveController`
        #: over a :class:`~repro.core.adaptive.RegularModeBalancer`:
        #: the regular tree has no mid-tree GPU resume, so adaptivity
        #: here is mode-space — {hybrid, cpu-only} — and integrates
        #: with the breaker.  Degrade pins the controller to cpu-only;
        #: a successful recovery probe re-discovers on the traffic that
        #: drifted during the outage instead of reviving the stale
        #: pre-incident mode; and a controller that finds cpu-only
        #: economically better trips the breaker (reason "adaptive").
        if adaptive is not None:
            bal_tree = getattr(
                getattr(adaptive, "balancer", None), "tree", None
            )
            if bal_tree is not None and bal_tree is not tree:
                raise ValueError(
                    "the adaptive controller must balance the same "
                    "HBPlusTree"
                )
        self.adaptive = adaptive
        self._calibrate()
        self._maybe_trip_adaptive()
        self.engine.policy = self

    @property
    def obs(self):
        """The tree's live :class:`repro.obs.Observability` bundle."""
        return getattr(self.tree, "obs", NULL_OBS)

    # ------------------------------------------------------------------
    # calibration (fault-free: the injector is paused)

    def _calibrate(self) -> None:
        """Measure the fault-free base costs the time model charges per
        batch: hybrid per-bucket cost and CPU-only per-query cost."""
        ctx = self.injector.paused() if self.injector else nullcontext()
        with ctx:
            tree = self.tree
            machine = tree.machine
            sample = tree.key_sample(11, 2048, replace=True)
            self._probe_queries = sample[:8].copy()
            costs = tree.bucket_costs(sample=sample) if len(sample) else None
            self.bucket_size = machine.bucket_size
            profiles, leaf = tree.level_profiles(sample)
            if costs is None:
                # an empty tree has no key to sample: price its bucket
                # with no GPU transaction and the empty walk's leaf
                costs = hybrid_bucket_costs(
                    machine, tree.spec, machine.bucket_size, 0.0,
                    float(tree.gpu_levels), leaf,
                )
            self.hybrid_bucket_ns = costs.double_buffered
            model = CpuCostModel(machine.cpu)
            per_query = (
                model.query_ns(leaf) + HYBRID_STAGE_OVERHEAD_NS
                + sum(model.query_ns(p) for p in profiles)
            )
            self.cpu_only_query_ns = per_query / model.threads

    # ------------------------------------------------------------------
    # lifecycle

    def snapshot_to(self, manager, epoch=None):
        """Snapshot the live tree through a
        :class:`repro.lifecycle.SnapshotManager`, carrying the adaptive
        controller's committed (D, R) split when one is attached.

        Failure-contained: an injected storage fault (torn write)
        costs the snapshot and is counted, but the live tree, its
        mirror, and every already-written snapshot are untouched —
        service continues bit-identically.  Returns the written path
        or None on a failed attempt.
        """
        split = self.adaptive.split() if self.adaptive is not None else None
        path = manager.save(self.tree, split=split, epoch=epoch)
        if path is None:
            self.stats.snapshot_failures += 1
        else:
            self.stats.snapshots += 1
        return path

    # ------------------------------------------------------------------
    # retry primitives

    def _charge_penalty(self, ns: float) -> None:
        """Fault-caused time counts both as penalty and as serving time."""
        self.stats.penalty_ns += ns
        self.stats.served_ns += ns

    def _backoff(self, attempt: int) -> float:
        b = self.config.backoff_ns(attempt, float(self._jitter_rng.random()))
        self.stats.backoff_ns += b
        self._charge_penalty(b)
        return b

    def _handle_fault(self) -> None:
        """Fixed interrupt/error-path cost of absorbing one fault."""
        self.stats.faults_handled += 1
        self._charge_penalty(self.config.fault_overhead_ns)
        obs = self.obs
        obs.count("live.resilience.faults_handled")
        obs.instant("fault", category="resilience",
                    total=self.stats.faults_handled)
        obs.emit("fault", total=self.stats.faults_handled)

    def _retry(self, kind: str, fn: Callable, *args):
        """Run ``fn(*args)``, retrying with backoff on the faults a
        ``kind`` of operation absorbs (``"transfer"`` or ``"kernel"``).

        Each caught fault counts one ``{kind}_retries`` and, when it is
        a timeout, charges the ``{kind}_timeout_ns`` watchdog budget;
        after ``max_{kind}_retries`` attempts :class:`GpuUnavailable`
        is raised.  A kernel fault aborts the engine's call before the
        failed bucket is counted, and each retry replays the whole
        call, so the counters stay a deterministic function of the
        fault schedule.
        """
        caught, timeout = RETRIED_FAULTS[kind]
        cfg = self.config
        attempts = getattr(cfg, f"max_{kind}_retries")
        counter = f"{kind}_retries"
        for attempt in range(attempts):
            try:
                return fn(*args)
            except caught as err:
                setattr(self.stats, counter, getattr(self.stats, counter) + 1)
                self._handle_fault()
                if isinstance(err, timeout):
                    budget = getattr(cfg, f"{kind}_timeout_ns")
                    self.stats.timeout_ns += budget
                    self._charge_penalty(budget)
                if attempt + 1 >= attempts:
                    raise GpuUnavailable(
                        f"{kind} failed after {attempts} attempts: {err}"
                    ) from err
                self._backoff(attempt)

    # ------------------------------------------------------------------
    # mirror health

    def _refresh_mirror(self) -> None:
        """Full I-segment re-upload with retries."""
        t = self._retry("transfer", self.tree.mirror_i_segment)
        self.stats.repair_transfer_ns += t
        self._charge_penalty(t)
        self.stats.mirror_refreshes += 1

    def _ensure_healthy_mirror(self) -> None:
        """Make the mirror safe to search: repair staleness, let the
        tree screen and verify its mirror, re-upload each node that
        differs (or the whole mirror when its size moved)."""
        tree = self.tree
        if tree.mirror_stale:
            self._refresh_mirror()
        rows = tree.verify_mirror()
        if rows is not None and len(rows) == 0:
            return
        self.stats.checksum_failures += 1
        self._handle_fault()
        if rows is None:
            self._refresh_mirror()
            return
        for row in rows.tolist():
            t = self._retry("transfer", tree.push_mirror_rows, row, row + 1)
            self.stats.repair_transfer_ns += t
            self._charge_penalty(t)
            self.stats.repaired_nodes += 1

    # ------------------------------------------------------------------
    # serving

    def _cpu_scans(self, los: np.ndarray, his: np.ndarray) -> list:
        tree = self.tree.cpu_tree
        return [
            tree.range_query(int(lo), int(hi))
            for lo, hi in zip(los.tolist(), his.tolist())
        ]

    def _serve_cpu_only(self, n: int, serve: Callable, *args):
        out = serve(*args)
        self.stats.served_cpu += n
        self.stats.served_ns += n * self.cpu_only_query_ns
        return out

    def _serve(self, span: str, hybrid: Callable, cpu_only: Callable,
               *args, **span_args):
        """Serve one batch of lookups or scans (the ``args[0]`` keys)
        under the breaker.

        ``hybrid(*args)`` runs the batch through the engine (with
        kernel retries), ``cpu_only(*args)`` is the degraded path.
        While the breaker is open every batch serves CPU-only and every
        ``probe_interval``-th one probes for recovery; otherwise the
        mirror is repaired first, a batch the GPU cannot finish falls
        back to the CPU, and each batch's measured per-query cost feeds
        the economic EWMA.
        """
        n = len(args[0])
        self.stats.batches += 1
        if self.breaker.open:
            with self.obs.span(span, mode="cpu_only", **span_args):
                out = self._serve_cpu_only(n, cpu_only, *args)
                if self.breaker.note_degraded_batch():
                    self._probe_recovery()
            return out
        pen0 = self.stats.penalty_ns
        with self.obs.span(span, mode="hybrid", **span_args):
            try:
                self._ensure_healthy_mirror()
                out = self._retry("kernel", hybrid, *args)
                self.stats.served_hybrid += n
                hybrid_ns = self.hybrid_bucket_ns * n / self.bucket_size
                self.stats.served_ns += hybrid_ns
                self.breaker.record_success()
                batch_ns = self.stats.penalty_ns - pen0 + hybrid_ns
            except GpuUnavailable:
                self._record_gpu_failure()
                out = self._serve_cpu_only(n, cpu_only, *args)
                # a failed hybrid attempt costs its penalties *plus* the
                # CPU-only fallback — that is its effective hybrid cost
                batch_ns = (
                    self.stats.penalty_ns - pen0
                    + n * self.cpu_only_query_ns
                )
            self._note_hybrid_cost(batch_ns / n)
        return out

    def _note_hybrid_cost(self, per_query_ns: float) -> None:
        """Fold one hybrid batch's measured per-query cost into the
        EWMA; trip the breaker when limping beats not limping."""
        a = self.config.ema_alpha
        if self._hybrid_cost_ema is None:
            self._hybrid_cost_ema = per_query_ns
        else:
            self._hybrid_cost_ema = (
                a * per_query_ns + (1.0 - a) * self._hybrid_cost_ema
            )
        self._ema_samples += 1
        if (
            not self.breaker.open
            and self._ema_samples >= self.config.min_ema_samples
            and self._hybrid_cost_ema
            > self.config.degrade_margin * self.cpu_only_query_ns
        ):
            self._trip("economic")

    def _record_gpu_failure(self) -> None:
        """Count one batch-level GPU failure; the breaker opens on the
        ``breaker_threshold``-th in a row."""
        self.stats.gpu_batch_failures += 1
        if self.breaker.record_failure():
            self.stats.degradations += 1
            self._note_degrade("consecutive_failures")

    def _trip(self, reason: str) -> None:
        """Open the breaker on a cost verdict: CPU-only service is
        cheaper than the hybrid one (``"economic"``, ``"adaptive"``)."""
        self.breaker.trip()
        self.stats.degradations += 1
        self.stats.economic_degradations += 1
        self._note_degrade(reason)

    def _note_degrade(self, reason: str) -> None:
        """Announce one breaker opening through every obs surface."""
        obs = self.obs
        obs.count("live.resilience.degradations", reason=reason)
        obs.instant("degrade", category="resilience", reason=reason)
        obs.emit("degrade", reason=reason)
        if self.adaptive is not None:
            # a degraded tree must not keep a split that trusts the
            # GPU; the pin holds until the recovery path rediscovers
            self.adaptive.force_cpu_only(reason)

    def _maybe_trip_adaptive(self) -> None:
        """Open the breaker when the mode controller has concluded the
        GPU is not worth using for the live traffic (the mode-space
        twin of economic degradation)."""
        if (self.adaptive is not None and not self.breaker.open
                and self.adaptive.cpu_only):
            self._trip("adaptive")

    def _probe_recovery(self) -> bool:
        """Try to bring the GPU back: re-mirror, then a trial search
        whose answers are verified against the CPU path.

        A failed probe is charged exactly ``probe_budget_ns``: whatever
        penalties the attempt incurred are rolled back and replaced by
        the flat watchdog slot, so degraded-mode overhead does not
        depend on *how* the GPU is failing.
        """
        self.stats.probes += 1
        pen0 = self.stats.penalty_ns
        ok = True
        try:
            self._refresh_mirror()
            q = np.asarray(self._probe_queries, dtype=self.tree.spec.dtype)
            gpu_ans = self._retry("kernel", self.engine.lookup_buckets,
                                 q)
            ok = bool(np.array_equal(gpu_ans,
                                     self.tree.cpu_tree.lookup_batch(q)))
        except GpuUnavailable:
            ok = False
        obs = self.obs
        obs.count("live.resilience.probes")
        obs.emit("probe", ok=ok)
        if not ok:
            incurred = self.stats.penalty_ns - pen0
            self._charge_penalty(self.config.probe_budget_ns - incurred)
            return False
        self.breaker.close()
        self._hybrid_cost_ema = None
        self._ema_samples = 0
        self.stats.recoveries += 1
        obs.count("live.resilience.recoveries")
        obs.instant("recover", category="resilience")
        obs.emit("recover")
        if self.adaptive is not None:
            # the pre-incident mode is stale: re-learn the base costs
            # and re-discover on the traffic that drifted during the
            # outage — which may immediately conclude the recovered
            # GPU is still not worth using for what is being served
            self._calibrate()
            self.adaptive.rediscover()
            self._maybe_trip_adaptive()
        return True

    def serve_lookups(self, q: np.ndarray) -> np.ndarray:
        """Serve one engine lookup call (coerced, non-empty ``q``; the
        engine holds the serve lock); sentinel marks not-found.

        Never raises on injected faults and never returns a wrong
        value: the worst case is CPU-only service at CPU-only speed.
        """
        if self.adaptive is not None:
            # serially, in batch order — the mode schedule is a
            # deterministic function of the batch sequence; a window
            # closing here may move the mode for *this* batch
            self.adaptive.note_bucket(q)
            self._maybe_trip_adaptive()
        return self._serve("resilient.lookup_batch",
                           self.engine.lookup_buckets,
                           self.tree.cpu_tree.lookup_batch, q,
                           queries=len(q))

    def serve_scan_bucket(self, los: np.ndarray, his: np.ndarray) -> list:
        """Serve one engine scan bucket, bit-identical to the sequential
        walk: a fault can at worst demote it to the CPU-only walk."""
        rows = self._serve("resilient.scan_bucket", self.engine.scan_bucket,
                           self._cpu_scans, los, his, scans=len(los))
        if self.adaptive is not None:
            # scan buckets feed the mode controller like lookup calls
            # do; the tuple volume is only known after the walk, so the
            # note lands post-serve (a window closing here moves the
            # mode for the *next* bucket)
            self.adaptive.note_scan_bucket(los, sum(len(r) for r in rows))
            self._maybe_trip_adaptive()
        return rows

    def serve_updates(self, write: Callable, keys: Sequence[int],
                      values: Sequence[int],
                      deletes: Sequence[int] = ()):
        """Run one engine update batch, ``write(keys, values, deletes)``
        (the engine holds the serve lock), and return its stats.

        The CPU tree always absorbs every update (it never faults).  A
        write whose mirror sync faults returns empty
        :class:`~repro.core.update.UpdateStats`: the mirror is
        re-uploaded with retries, and on exhaustion the breaker counts
        a failure — lookups keep serving correctly from the CPU.
        """
        try:
            return write(keys, values, deletes)
        except FaultError:
            # the end-of-batch mirror sync aborted; the CPU tree holds
            # every update, only the mirror is stale
            try:
                self._refresh_mirror()
            except GpuUnavailable:
                self._record_gpu_failure()
            return UpdateStats()

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the breaker is open (CPU-only service)."""
        return self.breaker.open

    def __repr__(self) -> str:
        mode = "cpu-only(degraded)" if self.degraded else "hybrid"
        return (
            f"ResilientHBPlusTree(n={len(self.tree)}, mode={mode}, "
            f"faults_survived={self.stats.gpu_batch_failures}, "
            f"recoveries={self.stats.recoveries})"
        )
