"""Memory-hierarchy simulator: allocator, TLB, cache, facade."""

import pytest

from repro.memsim.allocator import PageKind, SegmentAllocator
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.memsim.tlb import Tlb


class TestSegmentAllocator:
    def test_alignment_to_page(self):
        alloc = SegmentAllocator(small_page=4096, huge_page=1 << 20)
        seg = alloc.allocate("a", 100, PageKind.SMALL)
        assert seg.base % 4096 == 0
        huge = alloc.allocate("b", 100, PageKind.HUGE)
        assert huge.base % (1 << 20) == 0

    def test_segments_do_not_overlap(self):
        alloc = SegmentAllocator()
        a = alloc.allocate("a", 10_000, PageKind.SMALL)
        b = alloc.allocate("b", 10_000, PageKind.SMALL)
        assert a.end <= b.base

    def test_duplicate_name_rejected(self):
        alloc = SegmentAllocator()
        alloc.allocate("a", 10, PageKind.SMALL)
        with pytest.raises(ValueError):
            alloc.allocate("a", 10, PageKind.SMALL)

    def test_zero_size_rejected(self):
        alloc = SegmentAllocator()
        with pytest.raises(ValueError):
            alloc.allocate("z", 0, PageKind.SMALL)

    def test_free_and_contains(self):
        alloc = SegmentAllocator()
        alloc.allocate("a", 10, PageKind.SMALL)
        assert "a" in alloc
        alloc.free("a")
        assert "a" not in alloc
        with pytest.raises(KeyError):
            alloc.free("a")

    def test_address_of_bounds(self):
        alloc = SegmentAllocator()
        seg = alloc.allocate("a", 100, PageKind.SMALL)
        assert seg.address_of(0) == seg.base
        assert seg.address_of(99) == seg.base + 99
        with pytest.raises(ValueError):
            seg.address_of(100)

    def test_segment_for(self):
        alloc = SegmentAllocator()
        a = alloc.allocate("a", 100, PageKind.SMALL)
        assert alloc.segment_for(a.base + 5).name == "a"
        with pytest.raises(KeyError):
            alloc.segment_for(0)

    def test_huge_multiple_of_small_required(self):
        with pytest.raises(ValueError):
            SegmentAllocator(small_page=4096, huge_page=5000)

    def test_num_pages(self):
        alloc = SegmentAllocator(small_page=4096, huge_page=1 << 20)
        seg = alloc.allocate("a", 4096 * 3 + 1, PageKind.SMALL)
        assert seg.num_pages == 4


class TestTlb:
    def test_hit_after_fill(self):
        tlb = Tlb(entries_small=4, stlb_entries=0, entries_huge=2)
        assert not tlb.translate(7, PageKind.SMALL)  # cold miss
        assert tlb.translate(7, PageKind.SMALL)  # hit

    def test_lru_eviction_small(self):
        tlb = Tlb(entries_small=2, stlb_entries=0, entries_huge=1)
        tlb.translate(1, PageKind.SMALL)
        tlb.translate(2, PageKind.SMALL)
        tlb.translate(3, PageKind.SMALL)  # evicts 1
        assert not tlb.translate(1, PageKind.SMALL)

    def test_separate_pools_per_page_kind(self):
        tlb = Tlb(entries_small=1, stlb_entries=0, entries_huge=1)
        tlb.translate(1, PageKind.SMALL)
        tlb.translate(1, PageKind.HUGE)
        # the huge entry did not evict the small one
        assert tlb.translate(1, PageKind.SMALL)

    def test_miss_counters_per_kind(self):
        tlb = Tlb()
        tlb.translate(1, PageKind.SMALL)
        tlb.translate(2, PageKind.HUGE)
        assert tlb.counters.tlb_misses_small == 1
        assert tlb.counters.tlb_misses_huge == 1

    def test_four_huge_entries_default(self):
        # "only four entries in the last level TLB for 1GB pages"
        tlb = Tlb()
        assert tlb.huge_reach == 4
        for page in range(4):
            tlb.translate(page, PageKind.HUGE)
        for page in range(4):
            assert tlb.translate(page, PageKind.HUGE)
        tlb.translate(99, PageKind.HUGE)
        assert not tlb.translate(0, PageKind.HUGE)  # evicted

    def test_flush(self):
        tlb = Tlb()
        tlb.translate(1, PageKind.SMALL)
        tlb.flush()
        assert not tlb.translate(1, PageKind.SMALL)


class TestCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(1024, associativity=2, line_size=64)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(63)  # same line

    def test_different_line_misses(self):
        cache = SetAssociativeCache(1024, associativity=2, line_size=64)
        cache.access(0)
        assert not cache.access(64)

    def test_lru_within_set(self):
        # 2-way, 8 sets: lines 0, 8, 16 map to set 0
        cache = SetAssociativeCache(1024, associativity=2, line_size=64)
        cache.access(0)
        cache.access(8 * 64)
        cache.access(16 * 64)  # evicts line 0
        assert not cache.access(0)
        assert cache.access(16 * 64)

    def test_capacity_lines(self):
        cache = SetAssociativeCache(64 * 128, associativity=16, line_size=64)
        assert cache.capacity_lines == 128

    def test_counters(self):
        cache = SetAssociativeCache(1024)
        cache.access(0)
        cache.access(0)
        assert cache.counters.cache_misses == 1
        assert cache.counters.cache_hits == 1

    def test_contains_does_not_disturb(self):
        cache = SetAssociativeCache(1024, associativity=2, line_size=64)
        assert not cache.contains(0)
        cache.access(0)
        before = cache.counters.line_accesses
        assert cache.contains(0)
        assert cache.counters.line_accesses == before

    def test_flush(self):
        cache = SetAssociativeCache(1024)
        cache.access(0)
        cache.flush()
        assert not cache.contains(0)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0)


class TestMemorySystem:
    def test_touch_counts_lines(self):
        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        misses = mem.touch(seg, 0, 64)
        assert misses == 1
        assert mem.counters.line_accesses == 1

    def test_touch_spanning_lines(self):
        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        mem.touch(seg, 32, 64)  # straddles two lines
        assert mem.counters.line_accesses == 2

    def test_touch_line_then_hit(self):
        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        assert mem.touch_line(seg, 3) == 1
        assert mem.touch_line(seg, 3) == 0
        assert mem.counters.cache_hits == 1

    def test_touch_out_of_segment_rejected(self):
        mem = MemorySystem()
        seg = mem.allocate("s", 128, PageKind.SMALL)
        with pytest.raises(ValueError):
            mem.touch(seg, 100, 64)
        with pytest.raises(ValueError):
            mem.touch(seg, 0, 0)

    def test_tlb_charged_per_page_kind(self):
        mem = MemorySystem(llc_bytes=1 << 16, huge_page=1 << 20)
        small = mem.allocate("s", 4096, PageKind.SMALL)
        huge = mem.allocate("h", 4096, PageKind.HUGE)
        mem.touch_line(small, 0)
        mem.touch_line(huge, 0)
        assert mem.counters.tlb_misses_small == 1
        assert mem.counters.tlb_misses_huge == 1

    def test_reset_keeps_cache_contents(self):
        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        mem.touch_line(seg, 0)
        mem.reset_counters()
        assert mem.counters.line_accesses == 0
        assert mem.touch_line(seg, 0) == 0  # still cached

    def test_flush_empties_hierarchy(self):
        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        mem.touch_line(seg, 0)
        mem.flush()
        assert mem.touch_line(seg, 0) == 1

    def test_from_spec(self, m1):
        mem = MemorySystem.from_spec(m1.cpu)
        assert mem.cache.size_bytes <= m1.cpu.llc_bytes
        assert mem.allocator.huge_page == m1.cpu.huge_page


def _full_state(mem):
    """Every observable of the hierarchy: counters, cache-set key
    order, TLB pool key order, prefetcher stream table + issue count."""
    return (
        dict(vars(mem.counters)),
        dict(vars(mem.cache.counters)),
        dict(vars(mem.tlb.counters)),
        [list(s.keys()) for s in mem.cache._sets],
        list(mem.tlb._small._entries.keys()),
        list(mem.tlb._huge._entries.keys()),
        None if mem.prefetcher is None else (
            list(mem.prefetcher._streams.items()),
            mem.prefetcher.issued,
        ),
    )


class TestTouchLinesEquivalence:
    """``touch_lines`` promises to be counter- AND state-identical to
    a per-index ``touch_line`` loop — the run-wholesale fast path and
    the per-line fallback are both checked against the loop on every
    observable, across geometries and batch shapes."""

    GEOMETRIES = [
        dict(llc_bytes=1 << 16),
        dict(llc_bytes=4096, associativity=4),
        dict(llc_bytes=2048, associativity=2),
        dict(llc_bytes=4096, associativity=4, prefetch_degree=0),
        dict(llc_bytes=4096, associativity=4, prefetch_degree=3),
    ]

    @staticmethod
    def _batches():
        import numpy as np

        rng = np.random.default_rng(41)
        fixed = [
            [0],                                 # cold single line
            [0],                                 # warm re-touch
            list(range(10, 74)),                 # one long run (a leaf)
            list(range(74, 80)),                 # +1 continuation batch
            list(range(200, 264)) + list(range(500, 506)),
            list(range(505, 511)),               # overlapping re-walk
            [7, 7, 7, 9],                        # duplicates
            list(range(120, 110, -1)),           # descending
            list(range(0, 1024, 40)),            # strided
            [1022, 1023],                        # runs at segment end
        ]
        for _ in range(6):
            start = int(rng.integers(0, 900))
            fixed.append(
                (start + rng.integers(0, 90, size=48)).tolist()
            )
        return fixed

    @pytest.mark.parametrize("geom", range(len(GEOMETRIES)))
    def test_state_and_counters_match_per_line_loop(self, geom):
        import numpy as np

        kwargs = self.GEOMETRIES[geom]
        ref = MemorySystem(**kwargs)
        fast = MemorySystem(**kwargs)
        seg_ref = ref.allocate("s", 1 << 16, PageKind.SMALL)
        seg_fast = fast.allocate("s", 1 << 16, PageKind.SMALL)
        for batch in self._batches():
            m_ref = sum(ref.touch_line(seg_ref, i) for i in batch)
            m_fast = fast.touch_lines(seg_fast, np.asarray(batch))
            assert m_fast == m_ref
            assert _full_state(fast) == _full_state(ref)

    @staticmethod
    def _profile_batches():
        """Batches shaped like an instrumented descent of a sorted
        sample: each level's node lines, non-decreasing, with the upper
        levels repeating one line back to back."""
        import numpy as np

        rng = np.random.default_rng(47)
        fixed = [
            [3, 3, 3, 3, 5, 5, 9, 9, 9, 10, 10, 11, 40, 40, 40],
            [600, 601, 601, 602, 602, 602, 603, 610, 610],
            [100, 100, 100],
            [101],                                # lone line at last + 1
            [101, 101, 104],                      # repeat straddling calls
            [104, 104, 104],                      # whole batch one repeat
            [50, 50, 49, 49, 49, 48],             # repeats stepping down
            [1020, 1023, 1023],                   # repeat at segment end
            [1023, 1023],                         # ... and across calls
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],  # repeats in a stream
            [6],                                  # its lone continuation
            [700, 702, 704, 704, 706],            # lone lines, off-stream
        ]
        for _ in range(4):
            # one level of a sorted sample: few nodes, long repeats
            start = int(rng.integers(0, 900))
            fixed.append(
                np.sort(start + rng.integers(0, 60, size=96)).tolist()
            )
        return fixed

    @pytest.mark.parametrize("geom", range(len(GEOMETRIES)))
    def test_profile_shaped_batches_match_per_line_loop(self, geom):
        import numpy as np

        kwargs = self.GEOMETRIES[geom]
        ref = MemorySystem(**kwargs)
        fast = MemorySystem(**kwargs)
        seg_ref = ref.allocate("s", 1 << 16, PageKind.SMALL)
        seg_fast = fast.allocate("s", 1 << 16, PageKind.SMALL)
        for batch in self._profile_batches():
            m_ref = sum(ref.touch_line(seg_ref, i) for i in batch)
            m_fast = fast.touch_lines(seg_fast, np.asarray(batch))
            assert m_fast == m_ref
            assert _full_state(fast) == _full_state(ref)

    def test_repeat_straddling_calls_after_eviction(self):
        """A call that starts on the previous call's last line is
        probed, not folded: another segment may have evicted it."""
        import numpy as np

        def run(mem, per_line):
            a = mem.allocate("a", 1 << 15, PageKind.SMALL)
            b = mem.allocate("b", 1 << 15, PageKind.SMALL)
            sets, assoc = mem.cache.num_sets, mem.cache.associativity
            x = 37
            x_set = (a.base // 64 + x) % sets
            # assoc lines of b that share x's cache set
            first = (x_set - b.base // 64) % sets
            evict = [first + k * sets for k in range(assoc)]
            misses = []
            for seg, batch in ((a, [x]), (b, evict), (a, [x, x]),
                               (a, [x, x + 1])):
                if per_line:
                    misses.append(sum(mem.touch_line(seg, i) for i in batch))
                else:
                    misses.append(mem.touch_lines(seg, np.asarray(batch)))
            return misses

        ref = MemorySystem(llc_bytes=4096, associativity=4)
        fast = MemorySystem(llc_bytes=4096, associativity=4)
        assert run(fast, False) == run(ref, True)
        assert _full_state(fast) == _full_state(ref)
        # x was evicted: the straddling repeat is a real miss
        assert run(MemorySystem(llc_bytes=4096, associativity=4),
                   True)[2] >= 1

    def test_huge_pages_and_cross_segment_streams(self):
        import numpy as np

        ref = MemorySystem(llc_bytes=4096, associativity=4,
                           huge_page=1 << 20)
        fast = MemorySystem(llc_bytes=4096, associativity=4,
                            huge_page=1 << 20)
        segs_ref = [ref.allocate("a", 1 << 15, PageKind.SMALL),
                    ref.allocate("b", 1 << 15, PageKind.HUGE)]
        segs_fast = [fast.allocate("a", 1 << 15, PageKind.SMALL),
                     fast.allocate("b", 1 << 15, PageKind.HUGE)]
        rng = np.random.default_rng(43)
        for trial in range(12):
            which = int(rng.integers(0, 2))
            start = int(rng.integers(0, 400))
            batch = list(range(start, start + int(rng.integers(1, 70))))
            m_ref = sum(
                ref.touch_line(segs_ref[which], i) for i in batch
            )
            m_fast = fast.touch_lines(segs_fast[which],
                                      np.asarray(batch))
            assert m_fast == m_ref
            assert _full_state(fast) == _full_state(ref)

    def test_empty_batch_is_a_no_op(self):
        import numpy as np

        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        state = _full_state(mem)
        assert mem.touch_lines(seg, np.asarray([], dtype=np.int64)) == 0
        assert _full_state(mem) == state

    def test_out_of_segment_rejected(self):
        import numpy as np

        mem = MemorySystem(llc_bytes=1 << 16)
        seg = mem.allocate("s", 4096, PageKind.SMALL)
        with pytest.raises(ValueError):
            mem.touch_lines(seg, np.asarray([0, 64]))


class TestPageConfig:
    def test_small_small(self):
        assert PageConfig.SMALL_SMALL.inner_kind is PageKind.SMALL
        assert PageConfig.SMALL_SMALL.leaf_kind is PageKind.SMALL

    def test_huge_small(self):
        assert PageConfig.HUGE_SMALL.inner_kind is PageKind.HUGE
        assert PageConfig.HUGE_SMALL.leaf_kind is PageKind.SMALL

    def test_huge_huge(self):
        assert PageConfig.HUGE_HUGE.inner_kind is PageKind.HUGE
        assert PageConfig.HUGE_HUGE.leaf_kind is PageKind.HUGE
