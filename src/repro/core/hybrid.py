"""What the regular and the implicit HB+-tree share (paper section 5.4).

Both trees answer a bucket the same way: the GPU descends the mirrored
I-segment to one per-query code (T2), the CPU finishes in the
L-segment (T4).  :class:`HybridTree` holds that flow — launch
screening, the charged descent, the full lookup, range-scan starts and
the sampled T1-T4 cost model — so each tree supplies only its layout:
``gpu_descend``, ``cpu_finish_bucket``, ``profile_leaf_stage``,
``level_profiles``, how a code names a leaf, its stored-key sample and
its GPU level count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import GpuDevice
from repro.gpusim.kernels.frontier_search import PER_QUERY, validate_kernel
from repro.gpusim.transfer import PcieLink
from repro.keys import key_spec
from repro.memsim.mainmem import MemorySystem
from repro.obs import NULL_OBS
from repro.platform.configs import MachineConfig
from repro.platform.costmodel import (
    BucketCosts,
    CpuCostModel,
    CpuQueryProfile,
    hybrid_bucket_costs,
)


@dataclass
class GpuSearchResult:
    """Outcome of the GPU stage for one bucket: one code per query.

    A code addresses where the CPU finishes — a (node, leaf-line) pair
    in the regular tree, a leaf index in the implicit tree.
    """

    codes: np.ndarray
    transactions: int
    #: modeled transactions the same bucket costs in *arrival* order;
    #: set by the batch engine (:mod:`repro.core.batching`) when it
    #: measured the unsorted baseline of a sorted bucket
    baseline_transactions: Optional[int] = None

    @property
    def transactions_per_query(self) -> float:
        if len(self.codes) == 0:
            return 0.0
        return self.transactions / len(self.codes)

    @property
    def sorted_gain(self) -> float:
        """Fraction of modeled transactions saved vs arrival order."""
        if not self.baseline_transactions:
            return 0.0
        return 1.0 - self.transactions / self.baseline_transactions


class HybridTree:
    """Base of the hybrid trees: one bucket flow over a CPU + GPU."""

    #: seed of the workload sample :meth:`bucket_costs` draws
    COST_SAMPLE_SEED = 0
    #: whether a GPU descent can resume mid-tree
    #: (``cpu_descend_top`` / ``gpu_descend_from``), which the
    #: load-balanced (D, R) split needs; only the implicit layout can
    supports_split_descent = False

    def __init__(self, machine: MachineConfig, key_bits: int,
                 mem: Optional[MemorySystem]):
        self.machine = machine
        self.spec = key_spec(key_bits)
        self.mem = mem if mem is not None else MemorySystem.from_spec(machine.cpu)
        self.device = GpuDevice(machine.gpu)
        self.link = PcieLink(machine.pcie)
        #: :class:`repro.obs.Observability`; the shared disabled bundle
        #: until :meth:`attach_obs` threads a live one through
        self.obs = NULL_OBS
        #: default GPU search kernel for calls that do not pass one —
        #: ``"per_query"`` charges warp-window coalescing, ``"frontier"``
        #: level-wise block-wide dedup; engines and balancers override
        #: it per bucket via ``kernel=``
        self.kernel = PER_QUERY
        #: serializes every serving path over this tree — engine
        #: batches, direct range scans, resilient serving, shard
        #: updates — against engine ``quiesce()`` windows (engines adopt
        #: this lock), so a snapshot never observes a mid-split chain
        self.serve_lock = threading.RLock()

    # -- per-tree layout hooks ------------------------------------------

    @property
    def gpu_levels(self) -> int:
        """Inner levels the GPU stage walks (0 launches nothing)."""
        raise NotImplementedError

    def _stored_keys(self) -> np.ndarray:
        """Every stored key, the population :meth:`bucket_costs` samples."""
        raise NotImplementedError

    def _leaves_of(self, codes: np.ndarray) -> np.ndarray:
        """The leaf each GPU code lands in (where a range scan starts)."""
        raise NotImplementedError

    def level_profiles(
        self, sample: np.ndarray
    ) -> Tuple[List[CpuQueryProfile], CpuQueryProfile]:
        """Instrumented CPU profiles of ``sample``'s descent: one per
        inner level (root first) and one for the leaf stage.  The
        per-level costs of :class:`repro.core.load_balance.SplitCostModel`
        come from here."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Thread a :class:`repro.obs.Observability` bundle through the
        PCIe link, the GPU device, and this tree.  Engines constructed
        over this tree without an explicit bundle follow it."""
        self.obs = obs
        self.link.obs = obs
        self.device.obs = obs

    @property
    def i_segment_bytes(self) -> int:
        return self.iseg_buffer.nbytes

    @property
    def height(self) -> int:
        return self.cpu_tree.height

    @property
    def teams_per_warp(self) -> int:
        return max(1, self.machine.gpu.warp_size // self.spec.gpu_threads_per_query)

    def _resolve_kernel(self, kernel: Optional[str]) -> str:
        """``kernel`` argument, or this tree's default; validated."""
        return validate_kernel(kernel if kernel is not None else self.kernel)

    # ------------------------------------------------------------------
    # search

    def gpu_begin_bucket(self, n_queries: int) -> bool:
        """Screen + count one bucket's kernel launch (stage-2 entry).

        The stateful prologue of :meth:`gpu_search_bucket` — injector
        consultation and launch counter, via ``device.begin_launch`` —
        split out so a concurrent engine can screen serially in
        dispatch order while the pure :meth:`gpu_descend` runs on
        worker threads.  Returns False when the bucket launches nothing
        (empty bucket, or no GPU levels to walk).
        """
        if n_queries == 0 or self.gpu_levels == 0:
            return False
        self.device.begin_launch()
        return True

    def _charged(self, codes: np.ndarray, txns: int) -> GpuSearchResult:
        """Book one launched bucket's transactions on the device."""
        self.device.memory.counters.transactions_64 += txns
        self.device.memory.counters.bytes_moved += txns * 64
        return GpuSearchResult(codes=codes, transactions=txns)

    def gpu_search_bucket(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> GpuSearchResult:
        """Stage 2: screen the launch, descend, charge the device."""
        q = np.asarray(queries, dtype=self.spec.dtype)
        kern = self._resolve_kernel(kernel)
        if not self.gpu_begin_bucket(len(q)):
            # a bucket that launches nothing costs nothing
            return GpuSearchResult(
                codes=np.zeros(len(q), dtype=np.int64), transactions=0
            )
        return self._charged(*self.gpu_descend(q, kernel=kern))

    def modeled_transactions(
        self, queries: np.ndarray, kernel: Optional[str] = None
    ) -> int:
        """Transactions the GPU stage would charge for ``queries``.

        Pure measurement through the coalescing model — no launch, no
        device counters.  Used by the batch engine to price the
        arrival-order baseline of a sorted bucket, and by the balancers
        to price each kernel when they profile.
        """
        _codes, txns = self.gpu_descend(queries, kernel=kernel)
        return txns

    def lookup_batch(self, queries: Sequence[int]) -> np.ndarray:
        """Full hybrid lookup; the sentinel value marks not-found.

        Keys of any integer dtype (or plain Python ints) are coerced
        once via :meth:`repro.keys.KeySpec.coerce`, which raises
        ``OverflowError`` on out-of-range keys instead of wrapping them.
        """
        q = self.spec.coerce(queries)
        result = self.gpu_search_bucket(q)
        return self.cpu_finish_bucket(q, result.codes)

    def lookup(self, key: int) -> Optional[int]:
        out = self.lookup_batch(np.asarray([key], dtype=self.spec.dtype))
        val = int(out[0])
        return None if val == self.spec.max_value else val

    def range_query(self, lo: int, hi: int):
        """Sequential leaf-chain scan, serialized against engine
        ``quiesce()`` windows via the shared serve lock."""
        with self.serve_lock:
            return self.cpu_tree.range_query(lo, hi)

    def cpu_scan_bucket(
        self, los: np.ndarray, his: np.ndarray, codes: np.ndarray
    ) -> List[List[Tuple[int, int]]]:
        """Stage 4 for range scans: leaf walks from GPU-located starts.

        ``codes`` are the per-start-key codes the GPU stage produced for
        the ``lo`` bounds; each walk resumes in the leaf its code names,
        without re-running the CPU descent.
        """
        leaves = self._leaves_of(np.asarray(codes, dtype=np.int64))
        tree = self.cpu_tree
        return [
            tree.range_scan_from(int(leaf), int(lo), int(hi))
            for leaf, lo, hi in zip(
                leaves.tolist(),
                np.asarray(los).tolist(),
                np.asarray(his).tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # cost model

    def bucket_costs(
        self,
        bucket_size: Optional[int] = None,
        sample: Optional[np.ndarray] = None,
        cpu_model: Optional[CpuCostModel] = None,
        sort_batches: bool = False,
    ) -> BucketCosts:
        """The paper's T1-T4 for this tree, measured on a sampled workload.

        ``sort_batches=True`` prices the sorted/deduplicated pipeline of
        :class:`repro.core.batching.BatchingEngine`: the GPU stage is
        measured on the sorted distinct sample (fewer transactions per
        query) and all four stages are scaled by the sample's distinct
        fraction, since duplicates collapse before transfer.
        """
        bucket_size = bucket_size or self.machine.bucket_size
        if sample is None:
            stored = self._stored_keys()
            if len(stored) == 0:
                raise ValueError(
                    "bucket_costs needs stored keys to sample a workload; "
                    "the tree is empty — add keys first or pass "
                    "sample= explicitly"
                )
            rng = np.random.default_rng(self.COST_SAMPLE_SEED)
            # draw without replacement whenever the tree can fill the
            # bucket — duplicate draws inflate the sample's
            # unique_fraction and bias the sorted gain the planner
            # commits; replacement survives only as the tiny-tree
            # fallback
            size = 4096
            sample = rng.choice(stored, size=size,
                                replace=len(stored) < size)
        sample = np.asarray(sample, dtype=self.spec.dtype)
        if len(sample) == 0:
            raise ValueError("bucket_costs sample must be non-empty")
        unique_fraction = 1.0
        if sort_batches:
            from repro.core.batching import plan_bucket

            plan = plan_bucket(sample, dtype=self.spec.dtype)
            unique_fraction = plan.n_unique / plan.n_queries
            sample = plan.sorted_unique
        # priced through the pure descent: no launch, no device counter,
        # no injector draw
        _codes, txns = self.gpu_descend(sample)
        leaf_profile = self.profile_leaf_stage(sample)
        return hybrid_bucket_costs(
            self.machine,
            self.spec,
            bucket_size,
            gpu_transactions_per_query=txns / len(sample),
            gpu_levels=float(self.gpu_levels),
            cpu_leaf_profile=leaf_profile,
            cpu_model=cpu_model,
            unique_fraction=unique_fraction,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self.cpu_tree)}, "
            f"height={self.height}, machine={self.machine.name!r}, "
            f"iseg={self.i_segment_bytes}B)"
        )

    def __len__(self) -> int:
        return len(self.cpu_tree)

    def __contains__(self, key: int) -> bool:
        return self.lookup(key) is not None
