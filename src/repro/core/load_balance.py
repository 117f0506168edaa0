"""Load balancing between CPU and GPU (paper section 5.5).

On machines whose GPU is not comfortably faster than the CPU (M2), the
plain HB+-tree loses to the CPU-optimized tree: the GPU plus transfer
path costs more than it saves.  The load-balanced HB+-tree splits the
inner levels: the CPU traverses the *top* ``D`` levels (they are small
and cache-resident), the GPU the remaining levels, and the CPU finishes
in the leaves.  A fraction ``R`` of each bucket stops one level earlier
on the CPU, giving sub-level granularity.

Equation 4:

    C = max( L_C + sum_{i<D} C_{C,i} + R * C_{C,D},
             (1-R) * C_{G,D} + sum_{i>D} C_{G,i} )

Algorithm 1 (the discovery algorithm) finds (D, R): linear search on D
until the GPU is no longer the bottleneck, then 4 binary-search steps
on R.

The implementation is functional *and* modeled: per-level CPU costs are
measured by instrumented descents (top levels hit the LLC), per-level
GPU costs follow from transaction counts, and the balanced lookup
really executes split across the two engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.kernels.frontier_search import (
    KERNELS,
    PER_QUERY,
    validate_kernel,
)
from repro.keys import sorted_unique
from repro.platform.costmodel import BucketCosts, CpuCostModel


@dataclass
class DiscoveryResult:
    """Outcome of Algorithm 1."""

    depth: int
    ratio: float
    samples: List[Tuple[int, float, float, float]]
    """(D, R, Time_GPU, Time_CPU) for every getSample call of the
    winning kernel's Algorithm-1 run."""
    #: the *measured* bucket cost max(Time_GPU, Time_CPU) at (depth,
    #: ratio) — always one of the sampled points, never an extrapolation
    cost_ns: float = 0.0
    #: the GPU kernel the committed split was priced with — discovery
    #: runs Algorithm 1 once per measured kernel and commits the
    #: cheapest (kernel, D, R) triple
    kernel: str = PER_QUERY

    @property
    def sample_count(self) -> int:
        return len(self.samples)


def split_levels(n: int, depth: int, ratio: float,
                 height: int) -> np.ndarray:
    """Per-query CPU descent depths for one bucket under (D, R).

    Equation 4 semantics: an R fraction of the bucket has its level-D
    search done by the CPU (descends ``D + 1`` inner levels), the rest
    hands level D to the GPU (descends ``D``).  (D=0, R=0) is the
    all-zeros array — the unbalanced full-GPU path.
    """
    cut = int(round(ratio * n))
    levels = np.full(n, min(depth + 1, height), dtype=np.int64)
    levels[cut:] = min(depth, height)
    return levels


def split_lookup(tree, queries, depth: int, ratio: float) -> np.ndarray:
    """Answer one bucket split at (D, R): the CPU walks each query's
    top levels, the GPU resumes from there, the CPU finishes in the
    leaves.  ``tree`` needs the split-descent entry points
    (``supports_split_descent``)."""
    q = np.asarray(queries, dtype=tree.spec.dtype)
    levels = split_levels(len(q), depth, ratio, tree.height)
    nodes = tree.cpu_descend_top(q, levels)
    codes, _txns = tree.gpu_descend_from(q, levels, nodes)
    return tree.cpu_finish_bucket(q, codes)


class SplitCostModel:
    """Equation 4 evaluation + Algorithm 1 over measured level costs.

    :meth:`reprofile` measures the tree through its ``cost_profile``:
    ``cpu_level_ns`` (top level first) and ``leaf_ns`` from the
    instrumented CPU walk, ``gpu_level_ns_by_kernel`` from each
    kernel's transactions over the same walk's node streams.  :meth:`sample_times` /
    :meth:`balanced_cost_ns` price a split (Equation 4) and
    :meth:`discover` finds one (Algorithm 1).  The implicit tree's
    :class:`LoadBalancer`, the regular tree's two-mode
    :class:`repro.core.adaptive.RegularModeBalancer` and
    :class:`repro.core.framework.HybridFramework` all price through it.
    """

    #: measured by :meth:`reprofile`
    cpu_level_ns: List[float]
    leaf_ns: float
    gpu_level_ns_by_kernel: Dict[str, List[float]]
    #: applied split; discovery and the adaptive controller move it
    depth: int = 0
    ratio: float = 0.0
    #: the GPU kernel the committed split is priced with (a third
    #: discovery dimension next to D and R)
    kernel: str = PER_QUERY
    #: profile the sorted distinct sample (the batch engines' stream)
    sort_batches: bool = False
    #: restricts which kernels discovery may choose (``None`` = all
    #: measured kernels); lets a deployment pin the per-query schedule
    allowed_kernels: Optional[Tuple[str, ...]] = None
    #: fraction of bucket queries that are range scans (0 = pure
    #: lookups, the classic Eq-4 costing)
    scan_share: float = 0.0
    #: expected tuples returned per scan
    scan_length: float = 0.0
    #: modeled CPU cost of touching one additional leaf line while the
    #: scan walks the chain (set by :meth:`reprofile` from the measured
    #: leaf-stage cost)
    leaf_scan_ns: float = 0.0
    #: tuples one leaf cache line carries (how far a line's touch
    #: advances a scan before the next line is charged)
    scan_pairs_per_line: float = 8.0

    def __init__(
        self,
        tree,
        bucket_size: Optional[int] = None,
        cpu_model: Optional[CpuCostModel] = None,
        reprofile_on_init: bool = True,
        allowed_kernels: Optional[Tuple[str, ...]] = None,
    ):
        self.tree = tree
        self.machine = tree.machine
        self.bucket_size = bucket_size or self.machine.bucket_size
        self.cpu_model = cpu_model or CpuCostModel(self.machine.cpu)
        if allowed_kernels is not None:
            allowed_kernels = tuple(
                validate_kernel(k) for k in allowed_kernels
            )
        self.allowed_kernels = allowed_kernels
        if reprofile_on_init:
            self.reprofile()

    @property
    def height(self) -> int:
        """Number of inner (directory) levels above the leaves."""
        return self.tree.height

    @property
    def gpu_level_ns(self) -> List[float]:
        """Per-level GPU costs of the *currently selected* kernel."""
        return self.gpu_level_ns_by_kernel[self.kernel]

    def gpu_costs_for(self, kernel: str) -> List[float]:
        """Per-level GPU costs under ``kernel``."""
        return self.gpu_level_ns_by_kernel[kernel]

    def candidate_kernels(self) -> Tuple[str, ...]:
        """Kernels discovery can choose between — every measured kernel
        (intersected with :attr:`allowed_kernels` when restricted), in
        :data:`KERNELS` order, so ties go to the per-query default."""
        if self.allowed_kernels is not None:
            restricted = tuple(
                k for k in KERNELS if k in self.allowed_kernels
            )
            if restricted:
                return restricted
        return KERNELS

    def reprofile(self, sample: Optional[np.ndarray] = None,
                  sample_size: int = 2048) -> None:
        """Measure C_{C,i}, C_{G,i} and L_C from instrumented runs.

        ``sample`` supplies the query stream to profile on — the online
        adaptive controller passes a reservoir of *live* window queries
        here, so the per-level costs track the traffic actually being
        served.  When omitted, a seeded sample of stored keys is drawn
        without replacement (sampling *with* replacement skews
        per-level miss rates on small trees); an empty tree's sample is
        empty and prices zero work.

        Both sides come from the tree's ``cost_profile``: the
        instrumented CPU walk, and each kernel's full-descent
        transactions counted from the walk's own node streams.
        Profiling never counts a kernel launch or mutates
        device counters — a re-profile in the middle of an engine run
        leaves the engine's modeled counters bit-identical to an
        unprofiled run.
        """
        tree = self.tree
        if sample is None:
            sample = tree.key_sample(23, sample_size)
        else:
            sample = np.asarray(sample, dtype=tree.spec.dtype)
            if len(sample) == 0:
                raise ValueError("reprofile sample must be non-empty")
        if self.sort_batches:
            sample = sorted_unique(sample)
        profile = tree.cost_profile(sample)
        model = self.cpu_model
        self.cpu_level_ns = [model.query_ns(p) for p in profile.levels]
        self.leaf_ns = model.query_ns(profile.leaf)
        h = self.height
        gpu = self.machine.gpu
        self.gpu_level_ns_by_kernel = {}
        for kern in KERNELS:
            txns = profile.transactions[kern]
            txn_per_query_level = txns / max(1, len(sample)) / max(1, h)
            self.gpu_level_ns_by_kernel[kern] = [
                txn_per_query_level * 64.0 / gpu.effective_bandwidth_gbs
            ] * h
        # Scan costing: each extra leaf line walked past the landing
        # line costs one more CPU leaf probe.
        self.leaf_scan_ns = self.leaf_ns
        self.scan_pairs_per_line = float(tree.spec.leaf_pairs_per_line)

    def set_scan_profile(self, share: float, length: float) -> None:
        """Price buckets as a scan/lookup mix.

        ``share`` is the fraction of queries that are range scans and
        ``length`` their expected tuple count.  A scan's descent costs
        exactly a lookup's; the difference is the leaf-chain
        continuation — ``share x extra-leaf-lines x leaf_scan_ns`` of
        *CPU* work per query — which shifts Equation 4's CPU side and
        therefore where Algorithm 1 commits (kernel, D, R).  Survives
        :meth:`reprofile` (the profile is traffic, not hardware).
        """
        if not 0.0 <= share <= 1.0:
            raise ValueError("scan share must be within [0, 1]")
        if length < 0.0:
            raise ValueError("scan length must be >= 0")
        self.scan_share = float(share)
        self.scan_length = float(length)

    def scan_extra_ns(self) -> float:
        """Per-query CPU cost of the scans' leaf-chain continuations.

        The first leaf line is already charged by ``leaf_ns`` (a scan
        starts exactly like a lookup); only the lines beyond it are
        extra, weighted by the scan share of the mix.
        """
        if self.scan_share <= 0.0 or self.scan_length <= 0.0:
            return 0.0
        extra_lines = max(
            0.0,
            self.scan_length / max(self.scan_pairs_per_line, 1.0) - 1.0,
        )
        return self.scan_share * extra_lines * self.leaf_scan_ns

    # ------------------------------------------------------------------
    # Equation 4 / getSample

    def split_serves_gpu(self, depth: int, ratio: float) -> bool:
        """Whether a (D, R) split leaves the GPU any work at all.

        At ``depth == h`` (and at ``depth == h - 1`` with ``R == 1``)
        every query descends all inner levels on the CPU; no kernel
        launches and nothing crosses PCIe.
        """
        h = self.height
        if depth >= h:
            return False
        return not (depth + 1 >= h and ratio >= 1.0)

    def sample_times(self, depth: int, ratio: float,
                     bucket_size: Optional[int] = None,
                     kernel: Optional[str] = None,
                     ) -> Tuple[float, float]:
        """getSample(D, R[, kernel]): (Time_GPU, Time_CPU) for one bucket."""
        m = bucket_size or self.bucket_size
        h = self.height
        depth = min(depth, h)
        gpu_level_ns = self.gpu_costs_for(
            validate_kernel(kernel) if kernel is not None else self.kernel
        )
        cpu_per_query = (
            self.leaf_ns + self.scan_extra_ns()
            + sum(self.cpu_level_ns[:depth])
        )
        if depth < h:
            cpu_per_query += ratio * self.cpu_level_ns[depth]
        gpu_per_query = sum(gpu_level_ns[depth + 1:])
        if depth < h:
            gpu_per_query += (1.0 - ratio) * gpu_level_ns[depth]
        threads = self.cpu_model.threads
        time_cpu = m * cpu_per_query / threads
        if not self.split_serves_gpu(depth, ratio):
            # an all-CPU split launches no kernel: charging
            # kernel_init_ns here penalized D == h with phantom
            # launch overhead the GPU never incurs
            time_gpu = 0.0
        else:
            time_gpu = self.machine.gpu.kernel_init_ns + m * gpu_per_query
        return time_gpu, time_cpu

    def balanced_cost_ns(self, depth: int, ratio: float,
                         bucket_size: Optional[int] = None,
                         kernel: Optional[str] = None) -> float:
        """Equation 4: the bucket cost under a (D, R) split."""
        time_gpu, time_cpu = self.sample_times(
            depth, ratio, bucket_size, kernel=kernel
        )
        return max(time_gpu, time_cpu)

    # ------------------------------------------------------------------
    # Algorithm 1

    def _discover_kernel(
        self, kernel: str, bucket_size: Optional[int]
    ) -> Tuple[List[Tuple[int, float, float, float]],
               Tuple[int, float, float, float]]:
        """One Algorithm-1 run priced with ``kernel``'s level costs.

        Returns ``(samples, best_sample)`` where ``best_sample`` is the
        cheapest *sampled* point — the binary search's final adjustment
        of R is never evaluated by ``sample_times``, so the loop
        variable may name a (D, R) whose cost was never measured.
        """
        h = self.height
        samples: List[Tuple[int, float, float, float]] = []
        depth, ratio = 0, 1.0
        time_gpu, time_cpu = self.sample_times(
            depth, ratio, bucket_size, kernel=kernel
        )
        samples.append((depth, ratio, time_gpu, time_cpu))
        while time_gpu > time_cpu and depth < h:
            depth += 1
            time_gpu, time_cpu = self.sample_times(
                depth, ratio, bucket_size, kernel=kernel
            )
            samples.append((depth, ratio, time_gpu, time_cpu))
        ratio = 0.5
        for step in range(2, 6):
            time_gpu, time_cpu = self.sample_times(
                depth, ratio, bucket_size, kernel=kernel
            )
            samples.append((depth, ratio, time_gpu, time_cpu))
            if time_gpu > time_cpu:
                ratio += 1.0 / (2 ** step)
            else:
                ratio -= 1.0 / (2 ** step)
        best = min(samples, key=lambda s: max(s[2], s[3]))
        return samples, best

    def discover(self, bucket_size: Optional[int] = None) -> DiscoveryResult:
        """The paper's discovery algorithm, executed literally.

        Runs one Algorithm-1 pass per measured kernel (per-query and,
        once profiled, frontier) and commits the cheapest
        (kernel, D, R) triple; ties go to the earlier kernel in
        :data:`KERNELS` order, i.e. the per-query default.
        """
        best_kernel: Optional[str] = None
        best_samples: List[Tuple[int, float, float, float]] = []
        best_sample: Tuple[int, float, float, float] = (0, 0.0, 0.0, 0.0)
        best_cost = float("inf")
        for kern in self.candidate_kernels():
            samples, sample = self._discover_kernel(kern, bucket_size)
            cost = max(sample[2], sample[3])
            if cost < best_cost:
                best_kernel = kern
                best_samples = samples
                best_sample = sample
                best_cost = cost
        assert best_kernel is not None
        depth, ratio, time_gpu, time_cpu = best_sample
        self.depth = depth
        self.ratio = ratio
        self.kernel = best_kernel
        return DiscoveryResult(
            depth=depth, ratio=ratio, samples=best_samples,
            cost_ns=max(time_gpu, time_cpu), kernel=best_kernel,
        )


class LoadBalancer(SplitCostModel):
    """The load-balanced implicit HB+-tree search (section 5.5)."""

    #: the paper's starting point: all of level 0 on the CPU
    ratio = 1.0

    def __init__(
        self,
        tree,
        bucket_size: Optional[int] = None,
        cpu_model: Optional[CpuCostModel] = None,
        sort_batches: bool = False,
        reprofile_on_init: bool = True,
        allowed_kernels: Optional[Tuple[str, ...]] = None,
    ):
        self.sort_batches = sort_batches
        super().__init__(tree, bucket_size, cpu_model, reprofile_on_init,
                         allowed_kernels)

    def lookup_batch(self, queries) -> np.ndarray:
        """Execute one bucket split at the discovered (D, R)."""
        return split_lookup(self.tree, queries, self.depth, self.ratio)

    def bucket_costs(self, bucket_size: Optional[int] = None) -> BucketCosts:
        """T1-T4 under the discovered split, for the pipeline simulator.

        T2 is the GPU share, T4 the CPU share (top levels + leaf); the
        transfers additionally carry the intermediate node index.
        """
        m = bucket_size or self.bucket_size
        spec = self.tree.spec
        time_gpu, time_cpu = self.sample_times(self.depth, self.ratio, m)
        if not self.split_serves_gpu(self.depth, self.ratio):
            # all-CPU split: nothing crosses PCIe in either direction
            return BucketCosts(t1=0.0, t2=time_gpu, t3=0.0, t4=time_cpu)
        # query + intermediate node index travel to the GPU
        t1 = self.machine.pcie.transfer_ns(m * (spec.size_bytes + 8))
        t3 = self.machine.pcie.transfer_ns(m * 8)
        return BucketCosts(t1=t1, t2=time_gpu, t3=t3, t4=time_cpu)
