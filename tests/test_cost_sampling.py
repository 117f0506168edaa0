"""The write path's cost sampling against the scalar paths it replaced.

Each oracle here is the pre-batched code, kept in the test as the
reference: the emulated SIMD node search (Snippets 1/2) for the
closed-form ``_search_inner``, the scalar ``lookup(instrument=True)``
loop for ``charge_lookups``, per-line ``touch_line`` for the ordered
``touch_stream``, and the per-key touches for ``level_profiles``.
Every comparison is exact: slots, counters and the full cache, TLB and
prefetcher state.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.hbtree import HBPlusTree
from repro.core.update import (
    AsyncBatchUpdater,
    SyncUpdater,
    _measure_update_cost_ns,
)
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.cpu.node_search import (
    NodeSearchAlgorithm,
    get_search_function,
    search_leaf_line,
)
from repro.keys import key_spec
from repro.memsim.allocator import PageKind
from repro.memsim.mainmem import MemorySystem, PageConfig
from repro.memsim.metrics import AccessCounters
from repro.platform.configs import machine_m1
from repro.platform.costmodel import CpuQueryProfile
from repro.workloads.generators import generate_dataset

ALGOS = list(NodeSearchAlgorithm)

#: a memory system small enough that samples evict cache lines and TLB
#: entries, so the state comparison covers replacement order
SMALL_MEM = dict(llc_bytes=32 * 1024, associativity=4,
                 tlb_entries_small=4, stlb_entries=4, tlb_entries_huge=2)


def mem_state(mem: MemorySystem) -> dict:
    """Everything an access can change: counters, cache sets in LRU
    order, TLB pools in LRU order, the prefetcher's stream table."""
    state = {
        "counters": dataclasses.asdict(mem.counters),
        "tlb_counters": dataclasses.asdict(mem.tlb.counters),
        "cache_counters": dataclasses.asdict(mem.cache.counters),
        "sets": [list(s) for s in mem.cache._sets],
        "tlb_small": list(mem.tlb._small._entries),
        "tlb_huge": list(mem.tlb._huge._entries),
    }
    if mem.prefetcher is not None:
        state["streams"] = list(mem.prefetcher._streams.items())
        state["issued"] = mem.prefetcher.issued
    return state


def emulated_search_inner(tree, pool, node, key, counters=None) -> int:
    """The node search as the register emulation runs it: the index
    line picks a key line, the key line picks the slot."""
    search = get_search_function(tree.algorithm)
    kpl = tree.spec.keys_per_line
    group = min(search(pool.index_line[node], key, counters), kpl - 1)
    line = pool.keys[node].reshape(kpl, kpl)[group]
    local = min(search(line, key, counters), kpl - 1)
    return min(group * kpl + local, max(int(pool.size[node]) - 1, 0))


def scalar_instrumented_lookup(tree, key: int) -> None:
    """One ``lookup(key, instrument=True)`` with the emulated search."""
    counters = tree.mem.counters
    kpl = tree.spec.keys_per_line
    node = tree.root
    for level in range(tree.height - 1, -1, -1):
        pool = tree._pool(level)
        slot = emulated_search_inner(tree, pool, node, key, counters)
        tree._touch_inner(level, node, slot // kpl)
        if level:
            node = int(pool.refs[node, slot])
    tree._touch_leaf_line(node, slot)
    p = tree.spec.leaf_pairs_per_line
    row = tree.leaves.keys[node, slot * p: (slot + 1) * p]
    search_leaf_line(row, key, counters, tree.algorithm)
    counters.queries += 1


# ----------------------------------------------------------------------
# closed-form inner-node search


def sorted_padded_node(rng, spec, filled):
    """A non-decreasing node row with duplicates and MAX padding."""
    distinct = rng.choice(1 << (spec.bits - 2), size=max(1, filled // 2),
                          replace=False)
    row = np.sort(rng.choice(distinct, size=filled)).astype(spec.dtype)
    pad = np.full(spec.regular_fanout - filled, spec.max_value, spec.dtype)
    return np.concatenate([row, pad])


class TestClosedFormSearch:
    @pytest.mark.parametrize("bits", [64, 32])
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_slot_and_counters_match_emulation(self, algorithm, bits):
        spec = key_spec(bits)
        tree = RegularCpuBPlusTree(key_bits=bits, algorithm=algorithm)
        pool = tree.last
        node = tree.root
        rng = np.random.default_rng(bits)
        for filled in (1, 2, 7, spec.keys_per_line, spec.regular_fanout // 2,
                       spec.regular_fanout - 1, spec.regular_fanout):
            row = sorted_padded_node(rng, spec, filled)
            pool.keys[node] = row
            pool.size[node] = filled
            pool.refresh_index(node)
            stored = row[:filled].tolist()
            queries = (
                stored + [k + 1 for k in stored] + [k - 1 for k in stored]
                + rng.choice(1 << (spec.bits - 2), size=32).tolist()
                + [0, 1, spec.max_value - 1, spec.max_value]
            )
            for q in queries:
                want, got = AccessCounters(), AccessCounters()
                slot = emulated_search_inner(tree, pool, node, q, want)
                assert tree._search_inner(pool, node, q, got) == slot
                assert got == want, (filled, q)
                assert tree._search_inner(pool, node, q) == slot


# ----------------------------------------------------------------------
# batched cost sampling


def _tree(kind: str, algorithm, page_config=PageConfig.HUGE_SMALL):
    mem = MemorySystem(**SMALL_MEM)
    common = dict(mem=mem, algorithm=algorithm, page_config=page_config)
    if kind == "bits32":
        keys, values = generate_dataset(12_000, seed=4, key_bits=32)
        return RegularCpuBPlusTree(keys, values, key_bits=32, **common)
    keys, values = generate_dataset(20_000, seed=4)
    if kind == "bulk":
        return RegularCpuBPlusTree(keys, values, **common)
    if kind == "gapped":
        tree = GappedCpuBPlusTree(keys, values, fill=0.7, **common)
        for k in (keys[:300] + 1).tolist():
            tree.insert(k, 5)
        return tree
    assert kind == "grown"
    tree = RegularCpuBPlusTree(keys[:1000], values[:1000], **common)
    for k, v in zip(keys[1000:4000].tolist(), values[1000:4000].tolist()):
        tree.insert(k, v)
    return tree


def _sample(tree, rng, n=160):
    stored = tree.stored_keys()
    hits = rng.choice(stored, size=n // 2)
    misses = rng.integers(0, int(stored.max()), size=n // 2 - 2,
                          dtype=np.uint64)
    edges = [0, int(stored.max()) + 1]
    return np.concatenate([hits, misses, edges]).astype(tree.spec.dtype)


class TestChargeLookups:
    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("kind", ["bulk", "grown", "gapped", "bits32"])
    def test_state_identical_to_scalar_loop(self, kind, algorithm):
        trees = [_tree(kind, algorithm) for _ in range(3)]
        if kind == "grown":
            assert trees[0].leaves.count > 1  # the inserts split leaves
        rng = np.random.default_rng(3)
        warm = _sample(trees[0], rng, 40)
        sample = _sample(trees[0], rng)
        for t in trees:
            for k in warm.tolist():
                t.lookup(k, instrument=True)
        for k in sample.tolist():
            scalar_instrumented_lookup(trees[0], k)
        for k in sample.tolist():
            trees[1].lookup(k, instrument=True)
        trees[2].charge_lookups(sample)
        oracle = mem_state(trees[0].mem)
        assert oracle["counters"]["cache_misses"] > 0
        assert mem_state(trees[1].mem) == oracle
        assert mem_state(trees[2].mem) == oracle

    def test_small_pages_and_empty_sample(self):
        algo = NodeSearchAlgorithm.HIERARCHICAL_SIMD
        a, b = (_tree("bulk", algo, PageConfig.SMALL_SMALL) for _ in range(2))
        sample = _sample(a, np.random.default_rng(8))
        for k in sample.tolist():
            scalar_instrumented_lookup(a, k)
        b.charge_lookups(sample)
        assert mem_state(b.mem) == mem_state(a.mem)
        before = mem_state(b.mem)
        b.charge_lookups(np.zeros(0, dtype=np.uint64))
        assert mem_state(b.mem) == before

    def test_update_cost_matches_scalar_sampling(self):
        keys, values = generate_dataset(1 << 15, seed=2)
        trees = [HBPlusTree(keys, values, machine=machine_m1())
                 for _ in range(2)]
        sample = keys[::97][:96]
        cost = _measure_update_cost_ns(trees[1], sample)
        # the scalar loop the sampler used to run
        mem = trees[0].mem
        mem.reset_counters()
        for k in sample.tolist():
            scalar_instrumented_lookup(trees[0].cpu_tree, k)
        # the cost is a function of these counters alone
        assert mem_state(trees[1].mem) == mem_state(mem)
        assert cost > 0


# ----------------------------------------------------------------------
# the ordered cross-segment stream


def _stream_mem(prefetch_degree):
    mem = MemorySystem(prefetch_degree=prefetch_degree, **SMALL_MEM)
    segs = [
        mem.allocate("a", 64 * 1024, PageKind.SMALL),
        mem.allocate("b", 256 * 1024, PageKind.HUGE),
        mem.allocate("c", 32 * 1024, PageKind.SMALL),
    ]
    return mem, segs


class TestTouchStream:
    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_to_touch_line(self, degree, seed):
        rng = np.random.default_rng(seed)
        (m1, s1), (m2, s2) = _stream_mem(degree), _stream_mem(degree)
        which, lines = [], []
        for _ in range(300):
            seg = int(rng.integers(0, 3))
            n_lines = s1[seg].size // 64
            start = int(rng.integers(0, n_lines))
            # a mix of single probes and ascending runs that confirm
            # prefetch streams, some reaching the segment's end
            run = 1 if rng.random() < 0.6 else int(rng.integers(2, 9))
            for x in range(start, min(start + run, n_lines)):
                which.append(seg)
                lines.append(x)
        misses = 0
        for seg, x in zip(which, lines):
            misses += m1.touch_line(s1[seg], x)
        assert m2.touch_stream(s2, which, lines) == misses
        assert mem_state(m2) == mem_state(m1)
        assert m1.counters.prefetches > 0 or degree == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_touch_lines_high_degree_goes_access_by_access(self, seed):
        """A prefetch degree reaching the set count takes
        ``touch_lines`` through the stream, still per-line identical."""
        kwargs = dict(llc_bytes=2048, associativity=2, prefetch_degree=20)
        m1, m2 = MemorySystem(**kwargs), MemorySystem(**kwargs)
        assert m1.prefetcher.degree >= m1.cache.num_sets
        s1 = m1.allocate("s", 1 << 16, PageKind.SMALL)
        s2 = m2.allocate("s", 1 << 16, PageKind.SMALL)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            start = int(rng.integers(0, 900))
            batch = (start + np.arange(int(rng.integers(1, 40)))
                     if rng.random() < 0.5
                     else start + rng.integers(0, 90, size=24))
            misses = sum(m1.touch_line(s1, int(x)) for x in batch)
            assert m2.touch_lines(s2, batch) == misses
            assert mem_state(m2) == mem_state(m1)
        assert m1.counters.prefetches > 0

    def test_out_of_bounds_rejected(self):
        mem, segs = _stream_mem(2)
        with pytest.raises(ValueError):
            mem.touch_stream(segs, [0, 2], [0, segs[2].size // 64])

    def test_empty_stream(self):
        mem, segs = _stream_mem(2)
        assert mem.touch_stream(segs, [], []) == 0
        assert mem.counters.line_accesses == 0


# ----------------------------------------------------------------------
# batched level profiles


def scalar_level_profiles(tree: HBPlusTree, sample):
    """Reference walk: one ``_touch_inner`` per key and level, then one
    ``_touch_leaf_line`` per key, in order."""
    cpu = tree.cpu_tree
    mem = tree.mem
    q = np.asarray(sample, dtype=tree.spec.dtype)
    cpu._ensure_segments()
    kpl = tree.spec.keys_per_line
    mem.reset_counters()
    profiles = []
    node = np.full(len(q), cpu.root, dtype=np.int64)
    for level in range(cpu.height - 1, -1, -1):
        pool = cpu.last if level == 0 else cpu.upper
        slot = np.sum(pool.keys[node] < q[:, None], axis=1)
        slot = np.minimum(slot, np.maximum(pool.size[node] - 1, 0))
        before = mem.counters.cache_misses
        for n, g in zip(node.tolist(), (slot // kpl).tolist()):
            cpu._touch_inner(level, int(n), int(g))
        profiles.append(CpuQueryProfile(
            lines=3.0, misses=(mem.counters.cache_misses - before) / len(q),
            tlb_small=0.0, tlb_huge=0.0, node_searches=2.0,
        ))
        if level == 0:
            before = mem.counters.cache_misses
            for n, ln in zip(node.tolist(), slot.tolist()):
                cpu._touch_leaf_line(int(n), int(ln))
            leaf_misses = (mem.counters.cache_misses - before) / len(q)
        else:
            node = pool.refs[node, slot].astype(np.int64)
    leaf = CpuQueryProfile(lines=1.0, misses=leaf_misses, tlb_small=0.5,
                           tlb_huge=0.0, node_searches=1.0)
    return profiles, leaf


class TestRegularLevelProfiles:
    @pytest.mark.parametrize("bits", [64, 32])
    def test_matches_scalar_reference(self, bits):
        keys, values = generate_dataset(40_000, seed=6, key_bits=bits)
        a, b = (HBPlusTree(keys, values, machine=machine_m1(), key_bits=bits)
                for _ in range(2))
        rng = np.random.default_rng(1)
        for sample in (rng.choice(keys, 2048), np.sort(rng.choice(keys, 512))):
            assert b.level_profiles(sample) == scalar_level_profiles(a, sample)
            assert mem_state(b.mem) == mem_state(a.mem)


# ----------------------------------------------------------------------
# delete-only update batches


class TestDeleteOnlyBatches:
    @pytest.mark.parametrize("updater", [SyncUpdater, AsyncBatchUpdater])
    def test_deletes_are_priced_like_upserts(self, updater):
        keys, values = generate_dataset(1 << 15, seed=2)
        deleting = HBPlusTree(keys, values, machine=machine_m1())
        writing = HBPlusTree(keys, values, machine=machine_m1())
        victims = keys[::500][:64]
        dels = updater(deleting).apply([], [], deletes=victims)
        ups = updater(writing).apply(victims, values[::500][:64])
        assert dels.applied + dels.deferred == 64
        assert dels.modify_ns > 0
        # a delete descends exactly like an overwrite of the same key
        assert dels.modify_ns == pytest.approx(ups.modify_ns, rel=0.5)
        for k in victims.tolist():
            assert deleting.cpu_tree.lookup(k, instrument=False) is None

    def test_empty_batch_still_free(self):
        keys, values = generate_dataset(1 << 12, seed=2)
        tree = HBPlusTree(keys, values, machine=machine_m1())
        assert SyncUpdater(tree).apply([], []).modify_ns == 0.0
