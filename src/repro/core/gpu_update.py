"""GPU-assisted batch updates (paper section 7, future work #1).

"So far, updates are performed sequentially by the CPU with
asynchronous data transfer to the GPU; this could be further improved
by employing GPU cycles in support of parallel update query execution."

The expensive part of an update is *locating* the target leaf — the
same inner-node descent a lookup performs.  This updater offloads that
descent to the GPU exactly like the search path does:

1. the update batch's keys transfer to GPU memory           (T1)
2. the search kernel resolves every key to its big-leaf line (T2)
3. the (node, line) codes transfer back                      (T3)
4. the CPU applies the modifications grouped by leaf through
   ``apply_batch`` with the located leaves — no descent on the CPU.
   The ops that split or empty a leaf (the classification the
   asynchronous method defers, :func:`~repro.core.update.split_or_empty`)
   are priced as deferred single-threaded writes that re-descend
5. the whole I-segment uploads once (as in the asynchronous method)

Compared with :class:`AsyncBatchUpdater`, the CPU-side cost per update
drops from (descent + modify) to (group + modify), and the descent cost
moves to the GPU where it overlaps via the bucket pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.update import (
    ASYNC_PARALLEL_SPEEDUP,
    LOCK_OVERHEAD_FACTOR,
    UpdateStats,
    _measure_update_cost_ns,
    split_or_empty,
)


@dataclass
class GpuUpdateStats(UpdateStats):
    """Update statistics plus the GPU offload's own step times."""

    gpu_locate_ns: float = 0.0
    transfer_in_ns: float = 0.0
    transfer_out_ns: float = 0.0
    redescended: int = 0

    @property
    def total_ns(self) -> float:
        return (self.modify_ns + self.transfer_ns + self.gpu_locate_ns
                + self.transfer_in_ns + self.transfer_out_ns)


class GpuAssistedUpdater:
    """Batch upserts with GPU-located target leaves."""

    def __init__(self, tree: HBPlusTree, threads: int = None):
        self.tree = tree
        self.threads = threads if threads is not None else tree.machine.cpu.threads

    def apply(
        self,
        keys: Sequence[int],
        values: Sequence[int],
        transfer: bool = True,
    ) -> GpuUpdateStats:
        tree = self.tree
        cpu_tree = tree.cpu_tree
        spec = tree.spec
        keys = np.asarray(keys, dtype=spec.dtype)
        values = np.asarray(values, dtype=spec.dtype)
        stats = GpuUpdateStats()
        if len(keys) == 0:
            return stats

        # steps 1-3: locate every key's (node, line) on the GPU
        result = tree.gpu_search_bucket(keys)
        nodes = (result.codes // cpu_tree.fanout).astype(np.int64)
        machine = tree.machine
        stats.transfer_in_ns = machine.pcie.transfer_ns(keys.nbytes)
        stats.transfer_out_ns = machine.pcie.transfer_ns(len(keys) * 8)
        from repro.platform.costmodel import GpuCostModel
        gpu_model = GpuCostModel(machine.gpu, spec.gpu_threads_per_query)
        stats.gpu_locate_ns = gpu_model.kernel_ns(
            result.transactions, len(keys), 3.0 * cpu_tree.height
        )

        # step 4: apply grouped by target leaf (the codes tell us where)
        per_update_ns = _measure_update_cost_ns(tree, keys[:512])
        # GPU already descended: only the leaf modification remains
        leaf_modify_ns = per_update_ns * 0.45
        deferred = split_or_empty(cpu_tree, keys,
                                  np.ones(len(keys), dtype=bool), nodes)
        cpu_tree.apply_batch(keys, values, nodes=nodes)
        stats.redescended = int(deferred.sum())
        applied_without_descent = len(keys) - stats.redescended
        stats.lock_acquisitions = len(np.unique(nodes))
        stats.applied = len(keys)
        stats.deferred = stats.redescended

        stats.modify_ns = (
            applied_without_descent * leaf_modify_ns * LOCK_OVERHEAD_FACTOR
            / min(ASYNC_PARALLEL_SPEEDUP, self.threads)
            + stats.redescended * per_update_ns * 4.0
        )
        if transfer:
            stats.transfer_ns = tree.mirror_i_segment()
        else:
            tree.mirror_i_segment()
        return stats

