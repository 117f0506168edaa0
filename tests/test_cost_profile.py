"""One profiling walk prices every kernel (the split cost model's input).

``cost_profile`` is what ``SplitCostModel.reprofile`` measures.  The
implicit layouts (the implicit HB+-tree and the CSS-tree adapter) take
every kernel's transaction count from the node streams of the
instrumented CPU walk; these tests hold that count to the pure GPU
descent (``modeled_transactions``) and the walk's CPU profiles to the
per-access oracles.
"""

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.core.framework import CssTreeAdapter
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.cpu.css_tree import CssTree
from repro.gpusim.kernels.frontier_search import KERNELS
from repro.keys import sorted_unique
from repro.memsim.mainmem import MemorySystem
from repro.platform.costmodel import CpuQueryProfile
from repro.workloads.generators import generate_dataset


def scalar_css_profiles(tree: CssTree, sample):
    """Reference walk: one ``touch_line`` per query and directory level,
    in order, then each query's run of the sorted data array.

    The oracle for :func:`repro.core.framework._css_profiles` (which
    touches each level's lines in one ``touch_lines`` call).
    """
    mem = tree.mem
    q = np.asarray(sample, dtype=tree.spec.dtype)
    mem.reset_counters()
    profiles: List[CpuQueryProfile] = []
    node = np.zeros(len(q), dtype=np.int64)
    for level in range(tree.height):
        offset = tree._level_line_offset(level)
        before = mem.counters.cache_misses
        for n in node.tolist():
            mem.touch_line(tree.i_segment, offset + int(n))
        misses = (mem.counters.cache_misses - before) / len(q)
        profiles.append(CpuQueryProfile(
            lines=1.0, misses=misses, tlb_small=0.0, tlb_huge=0.0,
            node_searches=1.0,
        ))
        node = tree.descend_level(level, node, q)
    before = mem.counters.cache_misses
    tlb_before = mem.counters.tlb_misses_small
    pair = 2 * tree.spec.size_bytes
    for n in node.tolist():
        lo = int(n) * tree.fanout
        hi = min(lo + tree.fanout, tree.num_tuples)
        mem.touch(tree.l_segment, lo * pair, max(pair, (hi - lo) * pair))
    leaf = CpuQueryProfile(
        lines=2.0,
        misses=(mem.counters.cache_misses - before) / len(q),
        tlb_small=(mem.counters.tlb_misses_small - tlb_before) / len(q),
        tlb_huge=0.0,
        node_searches=1.0,
    )
    return profiles, leaf


@pytest.fixture(scope="module")
def data():
    keys, values = generate_dataset(1 << 14, seed=31)
    return keys, values


def _samples(keys):
    """Profile-shaped samples: the sorted distinct stream the adaptive
    balancer profiles, an arrival-order stream with repeats, and
    misses on both sides of the stored range (the edge nodes)."""
    rng = np.random.default_rng(5)
    hot = keys[rng.zipf(1.3, 3000) % len(keys)]
    misses = np.concatenate([
        rng.integers(0, 1 << 63, 200, dtype=np.uint64),
        np.array([0, 1, keys[-1] + 1, (1 << 64) - 2], dtype=np.uint64),
    ])
    return {
        "sorted_distinct": sorted_unique(hot),
        "arrival": hot[:1024],
        "misses": np.concatenate([hot[:300], misses]),
        "one_key": keys[7:8],
    }


def _make(kind, keys, values, machine):
    if kind == "implicit":
        return ImplicitHBPlusTree(keys, values, machine=machine)
    return CssTreeAdapter(
        CssTree(keys, values, mem=MemorySystem.from_spec(machine.cpu)),
        machine,
    )


class TestOneWalkPricesEveryKernel:
    @pytest.mark.parametrize("machine_name", ["m1", "m2"])
    @pytest.mark.parametrize("kind", ["implicit", "css"])
    def test_walk_counts_equal_modeled_transactions(self, data, m1, m2,
                                                    kind, machine_name):
        keys, values = data
        machine = m1 if machine_name == "m1" else m2
        tree = _make(kind, keys, values, machine)
        for name, sample in _samples(keys).items():
            profile = tree.cost_profile(sample)
            assert sorted(profile.transactions) == sorted(KERNELS)
            for kern in KERNELS:
                assert profile.transactions[kern] == (
                    tree.modeled_transactions(sample, kernel=kern)
                ), (name, kern)
            if kind == "css":
                # the adapter charges the per-query schedule for any
                # kernel name
                assert len(set(profile.transactions.values())) == 1

    def test_counts_are_not_vacuous(self, data, m1):
        keys, values = data
        tree = _make("implicit", keys, values, m1)
        counts = tree.cost_profile(_samples(keys)["arrival"]).transactions
        # the frontier window dedups across the whole bucket
        assert 0 < counts["frontier"] < counts["per_query"]

    def test_regular_tree_prices_through_its_own_descent(self, data, m2):
        keys, values = data
        fast = HBPlusTree(keys, values, machine=m2)
        ref = HBPlusTree(keys, values, machine=m2)
        sample = _samples(keys)["sorted_distinct"]
        profile = fast.cost_profile(sample)
        levels, leaf = ref.level_profiles(sample)
        assert (profile.levels, profile.leaf) == (levels, leaf)
        assert profile.transactions == {
            kern: ref.modeled_transactions(sample, kernel=kern)
            for kern in KERNELS
        }


class TestCssProfilesMatchPerAccessLoop:
    @pytest.mark.parametrize("machine_name", ["m1", "m2"])
    def test_matches_scalar_reference(self, data, m1, m2, machine_name):
        keys, values = data
        machine = m1 if machine_name == "m1" else m2
        fast = _make("css", keys, values, machine)
        ref = _make("css", keys, values, machine)
        bottom_misses = []
        for sample in _samples(keys).values():
            profiles, leaf = fast.level_profiles(sample)
            ref_profiles, ref_leaf = scalar_css_profiles(ref.cpu_tree,
                                                         sample)
            assert [dataclasses.asdict(p) for p in profiles] == [
                dataclasses.asdict(p) for p in ref_profiles
            ]
            assert dataclasses.asdict(leaf) == dataclasses.asdict(ref_leaf)
            mem, ref_mem = fast.cpu_tree.mem, ref.cpu_tree.mem
            assert [list(s) for s in mem.cache._sets] == [
                list(s) for s in ref_mem.cache._sets
            ]
            assert (list(mem.prefetcher._streams.items())
                    == list(ref_mem.prefetcher._streams.items()))
            bottom_misses.append(profiles[-1].misses)
        # the bottom level misses: the comparison is not vacuous
        assert max(bottom_misses) > 0
