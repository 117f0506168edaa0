"""Software pipelining of tree lookups (paper Algorithm 2, appendix B.2).

Each CPU thread resolves a batch of ``P`` queries *concurrently*: instead
of waiting for a child node's cache line, the thread issues a prefetch
and switches to the next query in the batch.  The paper found ``P = 16``
optimal (Fig 20): throughput saturates there (2.5x over ``P = 1``) while
latency keeps growing (6x at ``P = 16``).

This module executes the interleaving literally against an implicit
tree — level-step by level-step across the whole batch, exactly the loop
structure of Algorithm 2 — so that the memory system sees the true
interleaved access order, and reports the overlap statistics the cost
model converts into time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.node_search import (
    get_search_function,
    leaf_hit,
    search_leaf_line,
)
from repro.obs.stats import Stats


@dataclass
class PipelineStats(Stats):
    """Execution statistics of one software-pipelined batch run."""

    queries: int = 0
    level_steps: int = 0
    #: cache misses that had at least one other in-flight query to
    #: overlap with (their latency is hidden by the pipeline)
    overlapped_misses: int = 0
    #: cache misses with nothing to overlap (exposed latency)
    exposed_misses: int = 0


class SoftwarePipeline:
    """Runs point lookups through Algorithm 2 on an implicit tree.

    ``stats`` accumulates across :meth:`run` calls by design (a
    pipeline serves a stream); callers comparing runs should either
    :meth:`reset_stats` between them or detach a snapshot with
    :meth:`take_stats` — the accumulation is explicit, not a side
    effect of a lazily-created attribute.
    """

    def __init__(self, tree: ImplicitCpuBPlusTree, pipeline_len: int = 16):
        if pipeline_len < 1:
            raise ValueError("pipeline length must be >= 1")
        self.tree = tree
        self.pipeline_len = pipeline_len
        self._stats = PipelineStats()

    def run(self, queries: Sequence[int]) -> List[Optional[int]]:
        """Resolve ``queries``; results match ``tree.lookup`` exactly."""
        results: List[Optional[int]] = []
        for start in range(0, len(queries), self.pipeline_len):
            batch = [int(q) for q in queries[start: start + self.pipeline_len]]
            results.extend(self._run_batch(batch))
        return results

    def _run_batch(self, keys: List[int]) -> List[Optional[int]]:
        tree = self.tree
        mem = tree.mem
        counters = mem.counters if mem is not None else None
        search = get_search_function(tree.algorithm)
        p = len(keys)
        node = [0] * p
        # Algorithm 2 lines 3-6: one tree level per outer step, all
        # in-flight queries advanced before the first one is revisited
        for level, level_keys in enumerate(tree.inner_levels):
            offset = tree._level_line_offset(level)
            next_size = tree._next_size(level)
            misses_this_step = 0
            for i in range(p):
                if mem is not None and tree.i_segment is not None:
                    misses_this_step += mem.touch_line(
                        tree.i_segment, offset + node[i]
                    )
                k = search(level_keys[node[i]], keys[i], counters)
                node[i] = min(node[i] * tree.fanout + k, next_size - 1)
            self._account_overlap(misses_this_step)
        # Algorithm 2 lines 7-8: leaf search
        results: List[Optional[int]] = []
        misses_this_step = 0
        for i in range(p):
            if mem is not None and tree.l_segment is not None:
                misses_this_step += mem.touch_line(tree.l_segment, node[i])
            row = tree.leaf_keys[node[i]]
            pos = search_leaf_line(row, keys[i], counters, tree.algorithm)
            if leaf_hit(row, pos, keys[i], tree.spec.max_value):
                results.append(int(tree.leaf_values[node[i], pos]))
            else:
                results.append(None)
            if counters is not None:
                counters.queries += 1
        self._account_overlap(misses_this_step)
        self.stats.queries += p
        self.stats.level_steps += tree.height + 1
        return results

    def _account_overlap(self, misses: int) -> None:
        if misses <= 0:
            return
        if misses > 1 or self.pipeline_len > 1:
            # with P queries in flight, all but one miss per step overlap
            self.stats.overlapped_misses += misses - (1 if misses else 0)
            self.stats.exposed_misses += 1 if misses else 0
        else:
            self.stats.exposed_misses += misses

    @property
    def stats(self) -> PipelineStats:
        return self._stats

    def reset_stats(self) -> None:
        self._stats.reset()

    def take_stats(self) -> PipelineStats:
        """Detach a snapshot of the accumulated stats and reset the
        live object — the safe way to compare repeated runs."""
        snap = self._stats.copy()
        self._stats.reset()
        return snap

    def effective_memory_parallelism(self, max_mlp: int = 10) -> int:
        """In-flight misses the pipeline can overlap, capped by the LFBs."""
        return max(1, min(self.pipeline_len, max_mlp))
