"""Online adaptive load balancing (section 5.5 turned into a loop).

The offline :class:`~repro.core.load_balance.LoadBalancer` discovers one
(D, R) split for the traffic it was profiled on and never looks again.
Production traffic drifts — the hot set moves, the duplicate fraction
changes, the cache-residency of each inner level changes with it — and
a split discovered for yesterday's distribution quietly turns a
load-balanced tree back into a bottlenecked one.

:class:`AdaptiveController` closes the loop.  Engines report every
dispatched bucket through :meth:`~AdaptiveController.note_bucket`; the
controller keeps a deterministic reservoir over a sliding window of
buckets, and at each window boundary re-profiles per-level CPU/GPU
costs on that reservoir (instrumented cache/TLB descents + the pure
transaction model), re-runs Algorithm 1, and moves the applied (D, R)
— but only with hysteresis: the candidate must beat the current split
by ``hysteresis_gain`` for ``confirm_windows`` consecutive windows, so
one noisy window cannot thrash the split.

Determinism contract (tested in ``tests/test_adaptive.py``):

* decisions are functions of the query *values* only — modeled level
  costs and transaction counts, never wall clock;
* the per-bucket reservoir RNG is seeded from
  ``(seed, window, bucket)``, so the same trace always yields the same
  rebalance schedule;
* engines call :meth:`~AdaptiveController.note_bucket` once per
  bucket, in dispatch order;
* a split moves *which processor walks which level*, never what the
  walk returns — adaptive engine results stay bit-identical to the
  unbalanced engine's.

Re-profiling shares the host cache simulator with serving, so host-side
cache/TLB counters are perturbed by profiling descents; device-side
modeled counters are not (the GPU side is priced through the pure
transaction model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.load_balance import (
    DiscoveryResult,
    LoadBalancer,
    SplitCostModel,
    split_levels,  # re-exported: callers import it from here
)
from repro.gpusim.kernels.frontier_search import PER_QUERY, validate_kernel
from repro.obs import NULL_OBS
from repro.obs.stats import Stats

Split = Tuple[int, float]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the feedback loop."""

    #: buckets per sliding window (one evaluation per window)
    window_buckets: int = 8
    #: reservoir size the window's queries are downsampled to
    sample_size: int = 2048
    #: windows with fewer sampled queries than this are skipped
    min_window_queries: int = 64
    #: relative modeled-cost gain a candidate split must show
    hysteresis_gain: float = 0.05
    #: consecutive windows the same candidate must win before applying
    confirm_windows: int = 2
    #: reservoir RNG seed (decisions replay exactly for a fixed seed)
    seed: int = 0


@dataclass
class AdaptiveStats(Stats):
    """Counters of one controller's life."""

    buckets: int = 0
    queries: int = 0
    windows: int = 0
    evaluations: int = 0
    proposals: int = 0
    rebalances: int = 0
    forced_cpu_only: int = 0
    rediscoveries: int = 0
    scans: int = 0
    scan_tuples: int = 0
    last_gain: float = 0.0
    depth: int = 0
    ratio: float = 0.0
    kernel: str = PER_QUERY


class StaticSplit:
    """The null controller: a fixed (D, R) for every bucket.

    Speaks the same engine protocol as :class:`AdaptiveController`, so
    a benchmark can A/B a static seed split against the adaptive loop
    by swapping one constructor argument.
    """

    def __init__(self, depth: int = 0, ratio: float = 0.0,
                 kernel: str = PER_QUERY):
        self.depth = depth
        self.ratio = ratio
        self.kernel = validate_kernel(kernel)

    def split(self) -> Split:
        return (self.depth, self.ratio)

    def note_bucket(self, queries) -> None:
        pass

    def note_scan_bucket(self, los, tuples) -> None:
        pass


class RegularModeBalancer(SplitCostModel):
    """Mode-space balancer for the regular HB+-tree.

    The regular tree's 3-step node layout has no mid-tree GPU resume
    (``HBPlusTree.supports_split_descent`` is ``False``), so its split
    space collapses to the endpoints of Equation 4: plain hybrid
    (D=0, R=0) and cpu-only (D=h, R=1).  :meth:`_discover_kernel`
    evaluates exactly those two; profiling, pricing and the kernel
    sweep of :meth:`discover` are :class:`SplitCostModel`'s.
    """

    def _discover_kernel(self, kernel: str, bucket_size: Optional[int]):
        """Algorithm 1 restricted to the two modes the tree can run,
        priced with ``kernel``'s level costs."""
        samples: List[Tuple[int, float, float, float]] = []
        for depth, ratio in ((0, 0.0), (self.height, 1.0)):
            time_gpu, time_cpu = self.sample_times(
                depth, ratio, bucket_size, kernel=kernel
            )
            samples.append((depth, ratio, time_gpu, time_cpu))
        best = min(samples, key=lambda s: max(s[2], s[3]))
        return samples, best


def _balancer_for(tree, **kwargs) -> SplitCostModel:
    """The split space a hybrid tree can run: the full (D, R) space,
    profiled on the sorted-distinct stream the batch engines run, when
    its GPU descent resumes mid-tree; otherwise the two modes."""
    if tree.supports_split_descent:
        return LoadBalancer(tree, sort_batches=True, **kwargs)
    return RegularModeBalancer(tree, **kwargs)


class AdaptiveController:
    """The feedback loop: window → reprofile → Algorithm 1 → hysteresis.

    Engine protocol (spoken by :class:`BatchingEngine` and
    :class:`ResilientHBPlusTree`):

    * :meth:`split` — the (D, R) to apply to the *next* bucket;
    * :meth:`note_bucket` — called serially, in dispatch order, with
      each dispatched bucket's query stream.

    Observability: every applied move emits a ``rebalance`` hook event
    and counts under ``live.rebalance.*``; window-level gauges land as
    ``live.rebalance.gain`` / ``.depth`` / ``.ratio``.
    """

    def __init__(self, balancer: SplitCostModel,
                 config: Optional[AdaptiveConfig] = None,
                 obs=None, discover_on_init: bool = True):
        self.balancer = balancer
        self.config = config or AdaptiveConfig()
        self._obs_override = obs
        self.stats = AdaptiveStats()
        self._parts: List[np.ndarray] = []
        self._bucket_in_window = 0
        self._window_queries = 0
        self._window_scans = 0
        self._window_scan_tuples = 0
        self._pending: Optional[Split] = None
        self._streak = 0
        self._forced = False
        self._last_sample: Optional[np.ndarray] = None
        if discover_on_init:
            result = balancer.discover()
            self.depth, self.ratio = result.depth, result.ratio
            self.kernel = result.kernel
        else:
            self.depth, self.ratio = balancer.depth, balancer.ratio
            self.kernel = balancer.kernel
        self.stats.depth, self.stats.ratio = self.depth, self.ratio
        self.stats.kernel = self.kernel
        self._push_tree_kernel(self.kernel)

    # ------------------------------------------------------------------
    # construction conveniences

    @classmethod
    def for_tree(cls, tree, config: Optional[AdaptiveConfig] = None,
                 bucket_size: Optional[int] = None, obs=None,
                 discover_on_init: bool = True,
                 allowed_kernels: Optional[Tuple[str, ...]] = None,
                 ) -> "AdaptiveController":
        """Build the right balancer for the given hybrid tree.

        Trees with a mid-tree GPU resume path (the implicit tree) get
        the full (D, R) space through :class:`LoadBalancer`, profiled
        on the sorted-distinct stream the batch engines actually run;
        the regular tree gets the two-mode
        :class:`RegularModeBalancer`.  ``allowed_kernels`` restricts
        the kernel dimension of discovery (e.g. ``("per_query",)``
        pins the Snippet-3 schedule; the default considers every
        measured kernel).
        """
        balancer = _balancer_for(tree, bucket_size=bucket_size,
                                 allowed_kernels=allowed_kernels)
        return cls(balancer, config=config, obs=obs,
                   discover_on_init=discover_on_init)

    @classmethod
    def warm_start(cls, tree, split: Split,
                   config: Optional[AdaptiveConfig] = None,
                   bucket_size: Optional[int] = None,
                   obs=None) -> "AdaptiveController":
        """Resume with a previously committed (D, R) pinned as the
        starting split — no init-time reprofiling window.

        The restore path hands the last committed split from a snapshot
        here; the balancer skips its constructor profile (the first
        live window reprofiles on actual traffic before any move), so
        a warm-restarted node serves at the committed split from the
        first bucket.
        """
        balancer = _balancer_for(tree, bucket_size=bucket_size,
                                 reprofile_on_init=False)
        balancer.depth, balancer.ratio = int(split[0]), float(split[1])
        if len(split) > 2:
            balancer.kernel = validate_kernel(split[2])
        return cls(balancer, config=config, obs=obs,
                   discover_on_init=False)

    # ------------------------------------------------------------------
    # engine protocol

    @property
    def obs(self):
        if self._obs_override is not None:
            return self._obs_override
        return getattr(self.balancer.tree, "obs", NULL_OBS)

    @property
    def height(self) -> int:
        return self.balancer.height

    @property
    def cpu_only(self) -> bool:
        """Whether the current split leaves the GPU no work."""
        return not self.balancer.split_serves_gpu(self.depth, self.ratio)

    def split(self) -> Split:
        return (self.depth, self.ratio)

    def note_bucket(self, queries) -> None:
        """Fold one dispatched bucket into the sliding window.

        Must be called serially, in dispatch order — the window
        boundary (and therefore the whole rebalance schedule) is a
        function of the bucket sequence.
        """
        cfg = self.config
        q = np.asarray(queries)
        self.stats.buckets += 1
        self.stats.queries += len(q)
        self._window_queries += len(q)
        per_bucket = -(-cfg.sample_size // cfg.window_buckets)
        if len(q) <= per_bucket:
            part = q.copy()
        else:
            rng = np.random.default_rng(
                [cfg.seed, self.stats.windows, self._bucket_in_window]
            )
            part = rng.choice(q, size=per_bucket, replace=False)
        self._parts.append(part)
        self._bucket_in_window += 1
        if self._bucket_in_window >= cfg.window_buckets:
            self._close_window()

    def note_scan_bucket(self, los, tuples) -> None:
        """Fold one dispatched *scan* bucket into the sliding window.

        A scan's descent keys (the ``lo`` bounds) enter the reservoir
        like lookup keys — the descent cost model does not care why a
        key descends — while the scan count and returned-tuple volume
        feed the per-window scan profile that Algorithm 1 prices
        through :meth:`SplitCostModel.set_scan_profile`.  This is the
        bucket's one window entry (it calls :meth:`note_bucket`):
        engines call it once per scan bucket, after the walk, instead
        of :meth:`note_bucket`.
        """
        q = np.asarray(los)
        self.stats.scans += len(q)
        self.stats.scan_tuples += int(tuples)
        self._window_scans += len(q)
        self._window_scan_tuples += int(tuples)
        self.note_bucket(q)

    # ------------------------------------------------------------------
    # the loop body

    def _close_window(self) -> None:
        sample = (
            np.concatenate(self._parts) if self._parts
            else np.empty(0, dtype=np.int64)
        )
        self._parts = []
        self._bucket_in_window = 0
        scans = self._window_scans
        scan_tuples = self._window_scan_tuples
        total = self._window_queries
        self._window_scans = 0
        self._window_scan_tuples = 0
        self._window_queries = 0
        self.stats.windows += 1
        self.obs.count("live.rebalance.windows")
        if len(sample) < self.config.min_window_queries:
            return
        self._last_sample = sample
        share = scans / total if total else 0.0
        mean_length = scan_tuples / scans if scans else 0.0
        self.balancer.set_scan_profile(share, mean_length)
        self.obs.gauge("live.rebalance.scan_share", share)
        if self._forced:
            # a forced split (degraded mode) is pinned until
            # rediscover(); keep collecting windows so recovery
            # re-discovers on fresh traffic, but never move the split
            self._pending, self._streak = None, 0
            return
        self._evaluate(sample)

    def _evaluate(self, sample: np.ndarray) -> None:
        cfg = self.config
        balancer = self.balancer
        self.stats.evaluations += 1
        balancer.reprofile(sample)
        result = balancer.discover()
        # discover() moved the balancer to the candidate; the applied
        # split (and kernel) is still ours until hysteresis confirms
        # the move — restore before pricing the current split
        balancer.depth, balancer.ratio = self.depth, self.ratio
        balancer.kernel = self.kernel
        current_cost = balancer.balanced_cost_ns(self.depth, self.ratio)
        candidate = (result.depth, result.ratio, result.kernel)
        gain = (
            1.0 - result.cost_ns / current_cost if current_cost > 0 else 0.0
        )
        self.stats.last_gain = gain
        self.obs.gauge("live.rebalance.gain", gain)
        if (candidate == (self.depth, self.ratio, self.kernel)
                or gain < cfg.hysteresis_gain):
            self._pending, self._streak = None, 0
            return
        self.stats.proposals += 1
        self.obs.count("live.rebalance.proposed")
        if candidate == self._pending:
            self._streak += 1
        else:
            self._pending, self._streak = candidate, 1
        if self._streak >= cfg.confirm_windows:
            self._apply(candidate[:2], gain, reason="drift",
                        kernel=candidate[2])

    def _push_tree_kernel(self, kernel: str) -> None:
        """Propagate the chosen kernel to trees the engines do not
        plumb it to explicitly.

        The batch engines read the kernel from the balancer at dispatch
        time, but the regular tree served through
        :class:`~repro.core.resilience.ResilientHBPlusTree` reaches
        ``gpu_search_bucket`` with no kernel argument — its tree-level
        default is the only channel, so the controller owns it.
        """
        tree = self.balancer.tree
        if tree is not None and not tree.supports_split_descent:
            tree.kernel = kernel

    def _apply(self, split: Split, gain: float, reason: str,
               kernel: Optional[str] = None) -> None:
        kern = kernel if kernel is not None else self.kernel
        moved = (split[0], split[1], kern) != (
            self.depth, self.ratio, self.kernel
        )
        self.depth, self.ratio = split
        self.kernel = kern
        self.balancer.depth, self.balancer.ratio = split
        self.balancer.kernel = kern
        self._push_tree_kernel(kern)
        self._pending, self._streak = None, 0
        self.stats.depth, self.stats.ratio = split
        self.stats.kernel = kern
        if moved:
            self.stats.rebalances += 1
            self.obs.count("live.rebalance.applied", reason=reason)
        self.obs.gauge("live.rebalance.depth", float(self.depth))
        self.obs.gauge("live.rebalance.ratio", float(self.ratio))
        self.obs.emit(
            "rebalance", depth=self.depth, ratio=self.ratio,
            kernel=kern, gain=gain, reason=reason, moved=moved,
        )

    # ------------------------------------------------------------------
    # resilience integration

    def force_cpu_only(self, reason: str = "degrade") -> None:
        """Pin the split to depth = h (all-CPU) until :meth:`rediscover`.

        The resilience layer calls this when the circuit breaker opens:
        a degraded tree must not keep a split that hands levels to a
        GPU it no longer trusts.
        """
        self._forced = True
        self.stats.forced_cpu_only += 1
        self._apply((self.height, 1.0), gain=0.0, reason=reason)

    def rediscover(self, reason: str = "recover") -> DiscoveryResult:
        """Drop the pin and re-run discovery on the freshest window.

        Recovery must *not* jump back to the stale pre-incident split:
        the traffic that drifted during the outage is what the
        re-opened GPU will serve.  Profiles on the last completed
        window when one exists, else on a stored-key sample.
        """
        self._forced = False
        self.stats.rediscoveries += 1
        self.balancer.reprofile(self._last_sample)
        result = self.balancer.discover()
        self._apply((result.depth, result.ratio), gain=0.0, reason=reason,
                    kernel=result.kernel)
        return result
