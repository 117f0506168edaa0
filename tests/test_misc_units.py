"""Small-surface unit tests: counters, stats objects, timelines."""

import numpy as np
import pytest

from repro.core.hbtree_implicit import GpuSearchResult, RebuildTimes
from repro.core.pipeline import BucketTimeline, PipelineRun
from repro.core.update import UpdateStats
from repro.memsim.allocator import PageKind, SegmentAllocator
from repro.memsim.metrics import AccessCounters


class TestAccessCounters:
    def test_add_accumulates_every_field(self):
        a = AccessCounters(line_accesses=1, cache_hits=2, queries=3)
        b = AccessCounters(line_accesses=10, cache_misses=5, prefetches=7)
        a.add(b)
        assert a.line_accesses == 11
        assert a.cache_hits == 2
        assert a.cache_misses == 5
        assert a.prefetches == 7
        assert a.queries == 3

    def test_reset(self):
        c = AccessCounters(line_accesses=5, tlb_misses_small=2)
        c.reset()
        assert c.line_accesses == 0
        assert c.tlb_misses == 0

    def test_per_query(self):
        c = AccessCounters(line_accesses=20, queries=4)
        assert c.per_query("line_accesses") == 5.0
        assert AccessCounters().per_query("line_accesses") == 0.0

    def test_cache_hit_rate(self):
        c = AccessCounters(line_accesses=10, cache_hits=7, cache_misses=3)
        assert c.cache_hit_rate == pytest.approx(0.7)
        assert AccessCounters().cache_hit_rate == 0.0

    def test_snapshot_is_plain_dict(self):
        snap = AccessCounters(queries=2).snapshot()
        assert snap["queries"] == 2
        assert isinstance(snap, dict)

    def test_tlb_misses_sums_pools(self):
        c = AccessCounters(tlb_misses_small=3, tlb_misses_huge=4)
        assert c.tlb_misses == 7


class TestStatsObjects:
    def test_update_stats_throughput(self):
        s = UpdateStats(applied=100, modify_ns=1e6, transfer_ns=1e6)
        assert s.throughput_qps(True) == pytest.approx(100 * 1e9 / 2e6)
        assert s.throughput_qps(False) == pytest.approx(100 * 1e9 / 1e6)

    def test_update_stats_zero_time(self):
        # zero-cost batches report 0.0, not inf (inf poisons downstream
        # means and is not valid JSON)
        s = UpdateStats(applied=5)
        assert s.throughput_qps() == 0.0

    def test_deferred_fraction(self):
        s = UpdateStats(applied=90, deferred=10)
        assert s.deferred_fraction == pytest.approx(0.1)
        assert UpdateStats().deferred_fraction == 0.0

    def test_rebuild_times(self):
        t = RebuildTimes(l_segment_ns=80.0, i_segment_ns=20.0,
                         transfer_ns=5.0)
        assert t.total_ns == pytest.approx(105.0)
        assert t.transfer_fraction == pytest.approx(0.05)

    def test_gpu_search_result_per_query(self):
        r = GpuSearchResult(
            codes=np.arange(4, dtype=np.int64), transactions=12
        )
        assert r.transactions_per_query == 3.0
        empty = GpuSearchResult(
            codes=np.empty(0, dtype=np.int64), transactions=0
        )
        assert empty.transactions_per_query == 0.0


class TestBucketTimeline:
    def test_completion_and_latency(self):
        t = BucketTimeline(index=0, t1_start=0.0, t1_end=10.0,
                           t2_end=50.0, t3_end=60.0, t4_end=100.0)
        assert t.completion == 100.0
        # avg query waits to mid-T4
        assert t.latency_of_average_query() == pytest.approx(80.0)

    def test_run_properties(self):
        tl = [
            BucketTimeline(0, 0, 10, 50, 60, 100),
            BucketTimeline(1, 10, 20, 90, 100, 150),
        ]
        run = PipelineRun(timelines=tl, bucket_size=1000)
        assert run.makespan_ns == 150.0
        assert run.throughput_qps == pytest.approx(2000 * 1e9 / 150.0)
        assert run.mean_latency_ns > 0

    def test_percentile_validation(self):
        run = PipelineRun(
            timelines=[BucketTimeline(0, 0, 1, 2, 3, 4)], bucket_size=10
        )
        with pytest.raises(ValueError):
            run.latency_percentile_ns(0)
        with pytest.raises(ValueError):
            run.latency_percentile_ns(101)
        assert run.latency_percentile_ns(100) > 0


class TestSegmentDetails:
    def test_page_of(self):
        alloc = SegmentAllocator(small_page=4096, huge_page=1 << 20)
        seg = alloc.allocate("a", 10_000, PageKind.SMALL)
        assert seg.page_of(seg.base) == seg.base // 4096
        assert seg.page_of(seg.base + 5000) == seg.base // 4096 + 1
        with pytest.raises(ValueError):
            seg.page_of(seg.end + 1)

    def test_total_allocated(self):
        alloc = SegmentAllocator()
        alloc.allocate("a", 100, PageKind.SMALL)
        alloc.allocate("b", 200, PageKind.SMALL)
        assert alloc.total_allocated == 300
        alloc.free("a")
        assert alloc.total_allocated == 200
