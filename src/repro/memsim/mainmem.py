"""Facade combining allocator, TLB and cache into one memory system.

Tree implementations call :meth:`MemorySystem.touch` for every node (or
cache line) they inspect; the facade performs address translation against
the TLB model and a lookup in the LLC model, accumulating the counters
that the platform cost model later converts into time.
"""

from __future__ import annotations

import enum

from repro.memsim.allocator import PageKind, Segment, SegmentAllocator
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.metrics import AccessCounters
from repro.memsim.tlb import Tlb


class PageConfig(enum.Enum):
    """The three memory-page configurations evaluated in Fig 7.

    * ``SMALL_SMALL`` — both segments on 4 KB pages.
    * ``HUGE_SMALL``  — I-segment on huge pages, L-segment on 4 KB pages.
    * ``HUGE_HUGE``   — both segments on huge pages.
    """

    SMALL_SMALL = ("small", "small")
    HUGE_SMALL = ("huge", "small")
    HUGE_HUGE = ("huge", "huge")

    @property
    def inner_kind(self) -> PageKind:
        return PageKind.SMALL if self.value[0] == "small" else PageKind.HUGE

    @property
    def leaf_kind(self) -> PageKind:
        return PageKind.SMALL if self.value[1] == "small" else PageKind.HUGE


class MemorySystem:
    """The CPU-side simulated memory hierarchy.

    Parameters mirror :class:`repro.platform.configs.CpuSpec`; a
    convenience constructor builds one directly from a spec.
    """

    def __init__(
        self,
        llc_bytes: int = 20 * 1024 * 1024 // 64,
        associativity: int = 16,
        line_size: int = 64,
        small_page: int = 4096,
        huge_page: int = 16 * 1024 * 1024,
        tlb_entries_small: int = 64,
        stlb_entries: int = 512,
        tlb_entries_huge: int = 4,
        prefetch_degree: int = 2,
    ):
        self.line_size = line_size
        self.allocator = SegmentAllocator(small_page=small_page, huge_page=huge_page)
        self.cache = SetAssociativeCache(
            llc_bytes, associativity=associativity, line_size=line_size
        )
        self.tlb = Tlb(
            entries_small=tlb_entries_small,
            stlb_entries=stlb_entries,
            entries_huge=tlb_entries_huge,
        )
        from repro.memsim.prefetch import StreamPrefetcher
        self.prefetcher = (
            StreamPrefetcher(self.cache, degree=prefetch_degree)
            if prefetch_degree > 0 else None
        )
        self.counters = AccessCounters()

    @classmethod
    def from_spec(cls, spec) -> "MemorySystem":
        """Build a memory system matching a :class:`CpuSpec`."""
        return cls(
            llc_bytes=spec.llc_bytes,
            line_size=spec.cache_line,
            small_page=spec.small_page,
            huge_page=spec.huge_page,
            tlb_entries_small=spec.tlb_entries_small,
            stlb_entries=spec.stlb_entries,
            tlb_entries_huge=spec.tlb_entries_huge,
        )

    def allocate(self, name: str, size: int, page_kind: PageKind) -> Segment:
        return self.allocator.allocate(name, size, page_kind)

    def touch(self, segment: Segment, offset: int, nbytes: int = 64) -> int:
        """Access ``nbytes`` at ``offset`` inside ``segment``.

        Returns the number of cache misses incurred.  Each touched line
        is translated through the TLB and looked up in the LLC.
        """
        if nbytes <= 0:
            raise ValueError("access size must be positive")
        start = segment.address_of(offset)
        # address_of validates the start; validate the end as well
        segment.address_of(offset + nbytes - 1)
        first_line = start // self.line_size
        last_line = (start + nbytes - 1) // self.line_size
        seg_last_line = (segment.end - 1) // self.line_size
        misses = 0
        for line in range(first_line, last_line + 1):
            addr = line * self.line_size
            self.tlb.translate(addr // segment.page_size, segment.page_kind)
            if not self.cache.access(addr):
                misses += 1
            if self.prefetcher is not None:
                self.counters.prefetches += self.prefetcher.observe(
                    segment.base, line, seg_last_line
                )
        touched = last_line - first_line + 1
        self.counters.line_accesses += touched
        self.counters.cache_hits += touched - misses
        self.counters.cache_misses += misses
        self.counters.tlb_hits = self.tlb.counters.tlb_hits
        self.counters.tlb_misses_small = self.tlb.counters.tlb_misses_small
        self.counters.tlb_misses_huge = self.tlb.counters.tlb_misses_huge
        return misses

    def touch_line(self, segment: Segment, line_index: int) -> int:
        """Access the ``line_index``-th cache line of ``segment``."""
        return self.touch(segment, line_index * self.line_size, self.line_size)

    def touch_lines(self, segment: Segment, line_indices) -> int:
        """Access many cache lines of ``segment``; returns total misses.

        Counter- AND state-identical to calling :meth:`touch_line` per
        index in order, but the batch is decomposed into maximal runs
        of lines that step by +1 or repeat, and each run is processed
        wholesale, one ``in`` probe plus one LRU operation per
        *distinct* line:

        * an immediate repeat of the line just touched changes no
          state, so it only counts as a hit: its page is the TLB pool's
          MRU entry, the line is its cache set's MRU entry (the
          prefetch fills that followed it went to other sets, since
          ``degree < num_sets``), and the prefetcher sees no +1 step,
          so it issues nothing and rewrites the stream entry with the
          value it already holds.  Only a repeat of the previous
          call's last line is probed, as other segments may have been
          touched in between.  A sorted profile sample repeats the
          same upper-level node back to back, so this halves the
          probes of an instrumented descent;
        * a run of one distinct line that does not continue the
          prefetch stream (its line is not the stream entry + 1) is
          one probe, the whole of what :meth:`touch_line` does for it;
        * once the stream is confirmed, every later line of the run
          was prefetched just in time, so its demand access is a hit
          and a probe miss means the line was one prefetch *issue*,
          never a demand miss — only the first one or two lines of a
          run can miss;
        * the in-run prefetch fills can be deferred from prefetch
          time to the line's own demand time: two lines less than
          ``degree`` apart never share a cache set (``degree`` is far
          below ``num_sets``), so between the real fill and the
          demand nothing else touches that set — the probe still
          sees the pre-fill state, the eviction victim is the same,
          and no intervening access can observe the difference.

        The TLB is independent of the cache, so it is settled in a
        separate pass over page *stretches*: only the first line of a
        stretch can change pool state, the rest re-touch the MRU
        entry.  The prefetcher's stream-table entry is read once and
        written back once.  This is the hot path of the leaf-chain
        scans and of ``profile_leaf_stage`` over large samples.  A
        prefetch degree that reaches ``num_sets`` voids the deferral
        argument; such batches go access by access through
        :meth:`touch_stream`.
        """
        import numpy as np

        idx = np.asarray(line_indices, dtype=np.int64).reshape(-1)
        n = len(idx)
        if n == 0:
            return 0
        prefetcher = self.prefetcher
        if prefetcher is not None and prefetcher.degree >= self.cache.num_sets:
            # the deferred-fill argument needs degree < num_sets
            return self.touch_stream((segment,), np.zeros(n, np.int64), idx)
        ls = self.line_size
        # bounds: validating the extremes covers every index between
        segment.address_of(int(idx.min()) * ls)
        segment.address_of(int(idx.max()) * ls + ls - 1)
        addrs = ((segment.base + idx * ls) // ls) * ls
        vp_arr = addrs // segment.page_size
        line_arr = addrs // ls
        vpages = vp_arr.tolist()
        lines = line_arr.tolist()
        seg_last_line = (segment.end - 1) // ls
        kind = segment.page_kind
        base = segment.base

        tlb = self.tlb
        small = kind is PageKind.SMALL
        pool = tlb._small if small else tlb._huge
        pool_entries = pool._entries
        pool_cap = pool.capacity
        tlb_hits = 0
        tlb_misses = 0

        cache = self.cache
        sets = cache._sets
        num_sets = cache.num_sets
        assoc = cache.associativity
        misses = 0

        prefetches = 0
        if prefetcher is not None:
            streams = prefetcher._streams
            degree = prefetcher.degree
            last = streams.get(base)
            if last is None:
                streams[base] = -1  # placed now; the value lands below
                while len(streams) > prefetcher.max_streams:
                    streams.popitem(last=False)
        else:
            degree = 0
            last = None

        # a run continues on a step of +1 or 0 (an immediate repeat);
        # the unsigned view turns a step down into a huge step up
        runs = [0]
        runs += (np.flatnonzero(
            np.diff(line_arr).view(np.uint64) > 1
        ) + 1).tolist()
        runs.append(n)
        # TLB pass: one pool probe per page stretch
        stretch = [0]
        stretch += (np.flatnonzero(np.diff(vp_arr) != 0) + 1).tolist()
        stretch.append(n)
        for a, b in zip(stretch, stretch[1:]):
            vp = vpages[a]
            if vp in pool_entries:
                pool_entries.move_to_end(vp)
                tlb_hits += b - a
            else:
                if len(pool_entries) >= pool_cap:
                    pool_entries.popitem(last=False)
                pool_entries[vp] = None
                tlb_misses += 1
                tlb_hits += b - a - 1
        # cache + prefetch pass, one run at a time; in-run
        # prefetch fills are deferred to each line's own demand
        # (exact while degree < num_sets — see the docstring)
        for a, b in zip(runs, runs[1:]):
            s = lines[a]
            e = lines[b - 1]
            if s == e and s - 1 != last:
                # one distinct line off the stream: a single probe
                cache_set = sets[s % num_sets]
                if s in cache_set:
                    cache_set.move_to_end(s)
                else:
                    if len(cache_set) >= assoc:
                        cache_set.popitem(last=False)
                    cache_set[s] = None
                    misses += 1
                last = e
                continue
            if prefetcher is not None:
                # first line whose access confirms the stream
                conf = s if (last is not None and s == last + 1) else s + 1
            else:
                conf = e + 1
            # accesses at/before the confirming one can miss ...
            for x in range(s, min(conf, e) + 1):
                cache_set = sets[x % num_sets]
                if x in cache_set:
                    cache_set.move_to_end(x)
                else:
                    if len(cache_set) >= assoc:
                        cache_set.popitem(last=False)
                    cache_set[x] = None
                    misses += 1
            # ... every later line was prefetched just in time: a
            # non-resident one was one prefetch issue, never a
            # demand miss (the fill is not demand traffic — no
            # demand counters, and a resident target keeps its
            # LRU position)
            for x in range(min(conf, e) + 1, e + 1):
                cache_set = sets[x % num_sets]
                if x in cache_set:
                    cache_set.move_to_end(x)
                else:
                    if len(cache_set) >= assoc:
                        cache_set.popitem(last=False)
                    cache_set[x] = None
                    prefetches += 1
            if degree and conf <= e:
                # the stream window reaches degree lines past the
                # run's end; fill the non-resident tail
                for x in range(max(conf + 1, e + 1),
                               min(e + degree, seg_last_line) + 1):
                    cache_set = sets[x % num_sets]
                    if x not in cache_set:
                        if len(cache_set) >= assoc:
                            cache_set.popitem(last=False)
                        cache_set[x] = None
                        prefetches += 1
            last = e

        if prefetcher is not None:
            streams[base] = lines[-1]
            streams.move_to_end(base)
            prefetcher.issued += prefetches

        tc = tlb.counters
        tc.tlb_hits += tlb_hits
        if small:
            tc.tlb_misses_small += tlb_misses
        else:
            tc.tlb_misses_huge += tlb_misses
        cc = cache.counters
        cc.line_accesses += n
        cc.cache_hits += n - misses
        cc.cache_misses += misses
        c = self.counters
        c.prefetches += prefetches
        c.line_accesses += n
        c.cache_hits += n - misses
        c.cache_misses += misses
        c.tlb_hits = tc.tlb_hits
        c.tlb_misses_small = tc.tlb_misses_small
        c.tlb_misses_huge = tc.tlb_misses_huge
        return misses

    def touch_stream(self, segments, which, line_indices) -> int:
        """Access line ``line_indices[i]`` of ``segments[which[i]]`` for
        every ``i``, in order; returns total misses.

        The ordered cross-segment twin of :meth:`touch_lines`, for
        access streams that interleave segments sharing the cache (an
        instrumented descent reads I-segment lines, then a leaf line,
        key after key).  Counter- and state-identical to calling
        :meth:`touch_line` per access: the same TLB pool updates, cache
        set order and prefetcher stream table, each settled inline in
        one loop instead of through the per-access method chain.
        """
        import numpy as np

        which = np.asarray(which, dtype=np.int64).reshape(-1)
        idx = np.asarray(line_indices, dtype=np.int64).reshape(-1)
        n = len(idx)
        if n == 0:
            return 0
        ls = self.line_size
        tlb = self.tlb
        prefetcher = self.prefetcher
        info = []
        seg_base = np.empty(len(segments), dtype=np.int64)
        seg_page = np.empty(len(segments), dtype=np.int64)
        for s, segment in enumerate(segments):
            mine = idx[which == s]
            if len(mine):
                # validating the extremes covers every index between
                segment.address_of(int(mine.min()) * ls)
                segment.address_of(int(mine.max()) * ls + ls - 1)
            small = segment.page_kind is PageKind.SMALL
            pool = tlb._small if small else tlb._huge
            info.append((pool._entries, pool.capacity, small, segment.base,
                         (segment.end - 1) // ls))
            seg_base[s] = segment.base
            seg_page[s] = segment.page_size
        addrs = ((seg_base[which] + idx * ls) // ls) * ls
        vpages = (addrs // seg_page[which]).tolist()
        lines = (addrs // ls).tolist()

        sets = self.cache._sets
        num_sets = self.cache.num_sets
        assoc = self.cache.associativity
        if prefetcher is not None:
            streams = prefetcher._streams
            degree = prefetcher.degree
            max_streams = prefetcher.max_streams
        tlb_hits = misses_small = misses_huge = misses = prefetches = 0
        for s, vp, line in zip(which.tolist(), vpages, lines):
            pool_entries, pool_cap, small, base, seg_last_line = info[s]
            if vp in pool_entries:
                pool_entries.move_to_end(vp)
                tlb_hits += 1
            else:
                if len(pool_entries) >= pool_cap:
                    pool_entries.popitem(last=False)
                pool_entries[vp] = None
                if small:
                    misses_small += 1
                else:
                    misses_huge += 1
            cache_set = sets[line % num_sets]
            if line in cache_set:
                cache_set.move_to_end(line)
            else:
                if len(cache_set) >= assoc:
                    cache_set.popitem(last=False)
                cache_set[line] = None
                misses += 1
            if prefetcher is None:
                continue
            last = streams.get(base)
            if last is not None and line == last + 1:
                for target in range(line + 1,
                                    min(line + degree, seg_last_line) + 1):
                    target_set = sets[target % num_sets]
                    if target not in target_set:
                        if len(target_set) >= assoc:
                            target_set.popitem(last=False)
                        target_set[target] = None
                        prefetches += 1
            streams[base] = line
            streams.move_to_end(base)
            while len(streams) > max_streams:
                streams.popitem(last=False)

        if prefetcher is not None:
            prefetcher.issued += prefetches
        tc = tlb.counters
        tc.tlb_hits += tlb_hits
        tc.tlb_misses_small += misses_small
        tc.tlb_misses_huge += misses_huge
        cc = self.cache.counters
        cc.line_accesses += n
        cc.cache_hits += n - misses
        cc.cache_misses += misses
        c = self.counters
        c.prefetches += prefetches
        c.line_accesses += n
        c.cache_hits += n - misses
        c.cache_misses += misses
        c.tlb_hits = tc.tlb_hits
        c.tlb_misses_small = tc.tlb_misses_small
        c.tlb_misses_huge = tc.tlb_misses_huge
        return misses

    def reset_counters(self) -> None:
        """Zero all counters (keeps cache/TLB *contents* warm)."""
        self.counters.reset()
        self.tlb.counters.reset()
        self.cache.counters.reset()

    def flush(self) -> None:
        """Cold-start: empty the cache and TLB."""
        self.cache.flush()
        self.tlb.flush()
        if self.prefetcher is not None:
            self.prefetcher.reset()
