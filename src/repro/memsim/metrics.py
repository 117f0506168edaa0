"""Counters accumulated by the simulated memory hierarchy.

Every performance number a benchmark reports is derived from these
counters plus the machine config constants — nothing is hard-coded to a
figure's expected outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.stats import Stats


@dataclass
class AccessCounters(Stats):
    """Event counts collected while a workload runs against the models."""

    #: cache-line reads issued by the workload
    line_accesses: int = 0
    #: reads served by the (last level) cache
    cache_hits: int = 0
    #: reads that went to main memory
    cache_misses: int = 0
    #: address translations served by the TLB
    tlb_hits: int = 0
    #: page walks triggered by small (4 KB) pages
    tlb_misses_small: int = 0
    #: page walks triggered by huge pages
    tlb_misses_huge: int = 0
    #: node-search key comparisons executed
    key_comparisons: int = 0
    #: SIMD vector operations executed
    simd_ops: int = 0
    #: queries resolved
    queries: int = 0
    #: lines brought in by the stream prefetcher (bandwidth, no stall)
    prefetches: int = 0

    @property
    def tlb_misses(self) -> int:
        return self.tlb_misses_small + self.tlb_misses_huge

    def per_query(self, name: str) -> float:
        """Average of counter ``name`` per resolved query."""
        if self.queries == 0:
            return 0.0
        return getattr(self, name) / self.queries

    @property
    def cache_hit_rate(self) -> float:
        if self.line_accesses == 0:
            return 0.0
        return self.cache_hits / self.line_accesses
