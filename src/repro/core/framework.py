"""A general CPU-GPU framework for arbitrary leaf-stored trees.

The paper's second future-work direction (section 7): "develop a
general framework which enables the use of a CPU-GPU hybrid platform
for any arbitrary leaf-stored tree structure, such that using the node
structure and search/update function as input, the framework would
determine the parameters for an approach that best utilizes the
resources of both CPU and GPU."

:class:`HybridFramework` implements that framework over any
:class:`~repro.core.hybrid.HybridTree`.  Both HB+-trees are ones;
:class:`CssTreeAdapter` makes the CSS-tree one by deriving the implicit
layout's mirror and descent
(:class:`~repro.core.hbtree_implicit.ImplicitLayoutTree`) and adding
only its leaf stage.  The framework measures the given structure on
the given machine through a
:class:`~repro.core.load_balance.SplitCostModel` and derives an
execution :class:`HybridPlan`: pure-CPU, plain hybrid, or — when the
tree ``supports_split_descent`` — a load-balanced split (D, R) with a
bucket size, whichever the cost model predicts fastest.  ``execute``
then runs queries according to the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.hbtree_implicit import ImplicitLayoutTree
from repro.core.hybrid import HybridTree, profile_implicit_levels
from repro.core.load_balance import SplitCostModel, split_lookup
from repro.core.pipeline import BucketStrategy, strategy_throughput_qps
from repro.cpu.css_tree import CssTree
from repro.descent import probe
from repro.gpusim.kernels.frontier_search import PER_QUERY
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import (
    BucketCosts,
    CpuCostModel,
    CpuQueryProfile,
    HYBRID_STAGE_OVERHEAD_NS,
)

BUCKET_CANDIDATES = (8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024)


@dataclass
class HybridPlan:
    """The framework's decision for one structure on one machine."""

    mode: str  # "cpu-only" | "hybrid" | "balanced"
    depth: int
    ratio: float
    bucket_size: int
    buffers: int
    predicted_qps: float
    alternatives: dict = field(default_factory=dict)

    def describe(self) -> str:
        alts = ", ".join(
            f"{k}={v / 1e6:.1f}M" for k, v in sorted(self.alternatives.items())
        )
        return (
            f"{self.mode} (D={self.depth}, R={self.ratio:.2f}, "
            f"M={self.bucket_size}, buffers={self.buffers}) "
            f"-> {self.predicted_qps / 1e6:.1f} MQPS [{alts}]"
        )


class HybridFramework:
    """Plans and executes hybrid search for any leaf-stored
    :class:`~repro.core.hybrid.HybridTree`."""

    def __init__(
        self,
        tree: HybridTree,
        machine: MachineConfig,
        sample: Optional[np.ndarray] = None,
        cpu_model: Optional[CpuCostModel] = None,
    ):
        self.tree = tree
        self.machine = machine
        self.cpu_model = cpu_model or CpuCostModel(machine.cpu)
        #: Equation 4 / Algorithm 1 over the tree's measured level
        #: costs, priced with the per-query kernel
        self.model = SplitCostModel(
            tree, cpu_model=self.cpu_model, reprofile_on_init=False,
            allowed_kernels=(PER_QUERY,),
        )
        self._sample = sample
        self.plan_result: Optional[HybridPlan] = None

    # ------------------------------------------------------------------
    # cost evaluation

    def _bucket_costs(self, depth: int, ratio: float,
                      bucket: int) -> BucketCosts:
        t_gpu, t_cpu = self.model.sample_times(depth, ratio, bucket)
        payload = self.tree.spec.size_bytes + (8 if depth > 0 else 0)
        t1 = self.machine.pcie.transfer_ns(bucket * payload)
        t3 = self.machine.pcie.transfer_ns(bucket * 8)
        return BucketCosts(t1=t1, t2=t_gpu, t3=t3, t4=t_cpu)

    def _hybrid_qps(self, depth: int, ratio: float, bucket: int,
                    buffers: int = 2) -> float:
        costs = self._bucket_costs(depth, ratio, bucket)
        return strategy_throughput_qps(
            costs, BucketStrategy.DOUBLE_BUFFERED, bucket,
            n_buckets=32 * buffers,
        )

    def _cpu_only_qps(self) -> float:
        per_query = self.model.leaf_ns + sum(self.model.cpu_level_ns)
        return self.cpu_model.threads * 1e9 / per_query

    # ------------------------------------------------------------------
    # planning

    def plan(self) -> HybridPlan:
        """Measure, sweep the knobs, and pick the fastest mode."""
        sample = self._sample
        if sample is None:
            raise ValueError(
                "HybridFramework needs a query sample for planning; "
                "pass one at construction"
            )
        model = self.model
        model.reprofile(sample)
        # the hybrid CPU stage's bookkeeping beyond the leaf search
        model.leaf_ns += HYBRID_STAGE_OVERHEAD_NS
        h = self.tree.height

        cpu_qps = self._cpu_only_qps()
        best = HybridPlan(
            mode="cpu-only", depth=h, ratio=1.0,
            bucket_size=self.machine.bucket_size, buffers=1,
            predicted_qps=cpu_qps,
        )
        alternatives = {"cpu-only": cpu_qps}
        for bucket in BUCKET_CANDIDATES:
            plain = self._hybrid_qps(0, 0.0, bucket)
            alternatives[f"hybrid@{bucket // 1024}K"] = plain
            if plain > best.predicted_qps:
                best = HybridPlan(
                    mode="hybrid", depth=0, ratio=0.0, bucket_size=bucket,
                    buffers=2, predicted_qps=plain,
                )
        # load-balanced candidates: Algorithm 1 per bucket size
        balanced_buckets = (
            BUCKET_CANDIDATES if self.tree.supports_split_descent else ()
        )
        for bucket in balanced_buckets:
            found = model.discover(bucket)
            depth, ratio = found.depth, found.ratio
            qps = self._hybrid_qps(depth, ratio, bucket, buffers=3)
            alternatives[f"balanced@{bucket // 1024}K"] = qps
            if qps > best.predicted_qps * 1.02 and (depth, ratio) != (0, 0.0):
                best = HybridPlan(
                    mode="balanced", depth=depth, ratio=ratio,
                    bucket_size=bucket, buffers=3, predicted_qps=qps,
                )
        best.alternatives = alternatives
        self.plan_result = best
        return best

    # ------------------------------------------------------------------
    # execution

    def execute(self, queries: Sequence[int]) -> np.ndarray:
        """Run queries according to the current plan (functionally)."""
        if self.plan_result is None:
            self.plan()
        plan = self.plan_result
        q = np.asarray(queries, dtype=self.tree.spec.dtype)
        if plan.mode == "cpu-only":
            return self.tree.cpu_tree.lookup_batch(q)
        if plan.mode == "hybrid":
            return self.tree.lookup_batch(q)
        return split_lookup(self.tree, q, plan.depth, plan.ratio)


# ----------------------------------------------------------------------
# the CSS-tree adapter


class CssTreeAdapter(ImplicitLayoutTree):
    """A :class:`CssTree` as an implicit-layout hybrid tree: its
    directory mirrors to the GPU like the implicit HB+-tree's inner
    levels, and its sorted data array, in host memory, is the leaf
    stage.  Only that leaf stage and its instrumented walk are its
    own."""

    name = "css-tree"

    def __init__(self, tree: CssTree, machine: MachineConfig):
        super().__init__(machine, tree.spec.bits, tree.mem)
        if tree.mem is None:
            # a tree built without a memory system has no segments to
            # price: build them in the adapter's
            tree.mem = self.mem
            tree._allocate_segments()
        self.cpu_tree = tree
        self.mirror_i_segment()

    def coalescing_window(self, kernel, n_queries) -> int:
        """One warp's teams, the per-query schedule, whatever ``kernel``
        names: the framework prices only that one."""
        return self.teams_per_warp

    def cpu_finish_bucket(self, queries, codes):
        """Search each query's run of the sorted data array."""
        t = self.cpu_tree
        return probe(t.run_keys, t.run_values,
                     self._leaves_of(np.asarray(codes, dtype=np.int64)),
                     np.asarray(queries, dtype=self.spec.dtype),
                     self.spec.max_value)

    def _touch_leaves(self, codes: np.ndarray) -> None:
        """Touch each code's run of the sorted data array, every run's
        lines in one ``touch_lines`` call (``touch`` settles a run line
        by line, so the state is the same)."""
        tree, mem = self.cpu_tree, self.mem
        pair = 2 * tree.spec.size_bytes
        lo = self._leaves_of(codes) * tree.fanout
        start = lo * pair
        end = start + np.maximum(
            pair, (np.minimum(lo + tree.fanout, tree.num_tuples) - lo) * pair
        )
        first = start // mem.line_size
        count = (end - 1) // mem.line_size - first + 1
        mem.touch_lines(
            tree.l_segment,
            np.repeat(first - count.cumsum() + count, count)
            + np.arange(count.sum()),
        )

    def _profile_walk(self, queries):
        """The CSS layout's instrumented walk: the directory levels
        (:func:`profile_implicit_levels`), then each query's run of the
        sorted data array (:meth:`_touch_leaves`)."""
        mem = self.mem
        n = max(1, len(queries))
        profiles, node, streams = profile_implicit_levels(self.cpu_tree, mem,
                                                          queries)
        before = mem.counters.cache_misses
        tlb_before = mem.counters.tlb_misses_small
        self._touch_leaves(node)
        leaf = CpuQueryProfile(
            lines=2.0,
            misses=(mem.counters.cache_misses - before) / n,
            tlb_small=(mem.counters.tlb_misses_small - tlb_before) / n,
            tlb_huge=0.0,
            node_searches=1.0,
        )
        return profiles, leaf, streams
