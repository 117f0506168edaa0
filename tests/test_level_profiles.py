"""Per-level CPU profiles of the hybrid trees (the split cost model's input)."""

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.load_balance import SplitCostModel
from repro.platform.costmodel import CpuQueryProfile
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_point_queries


def scalar_implicit_level_profiles(tree: ImplicitHBPlusTree, sample):
    """Reference walk: one ``touch_line`` per query and level, in order.

    The oracle for the vectorised :meth:`ImplicitHBPlusTree.level_profiles`
    (which touches each level's lines in one ``touch_lines`` call).
    """
    cpu = tree.cpu_tree
    mem = tree.mem
    q = np.asarray(sample, dtype=tree.spec.dtype)
    mem.reset_counters()
    c = mem.counters
    profiles: List[CpuQueryProfile] = []
    node = np.zeros(len(q), dtype=np.int64)
    for level in range(cpu.height):
        offset = cpu._level_line_offset(level)
        before = c.cache_misses
        for n in node.tolist():
            mem.touch_line(cpu.i_segment, offset + int(n))
        profiles.append(CpuQueryProfile(
            lines=1.0, misses=(c.cache_misses - before) / len(q),
            tlb_small=0.0, tlb_huge=0.0, node_searches=1.0,
        ))
        keys = cpu.inner_levels[level][node]
        k = np.sum(keys < q[:, None], axis=1).astype(np.int64)
        next_size = (
            cpu.inner_levels[level + 1].shape[0]
            if level + 1 < cpu.height else cpu.num_leaves
        )
        node = np.minimum(node * cpu.fanout + k, next_size - 1)
    before = (c.cache_misses, c.tlb_misses_small, c.tlb_misses_huge)
    for n in node.tolist():
        mem.touch_line(cpu.l_segment, int(n))
    leaf = CpuQueryProfile(
        lines=1.0,
        misses=(c.cache_misses - before[0]) / len(q),
        tlb_small=(c.tlb_misses_small - before[1]) / len(q),
        tlb_huge=(c.tlb_misses_huge - before[2]) / len(q),
        node_searches=1.0,
    )
    return profiles, leaf


@pytest.fixture(scope="module")
def data():
    keys, values = generate_dataset(1 << 14, seed=23)
    return keys, values, make_point_queries(keys, 2048, seed=4)


class TestImplicitLevelProfiles:
    @pytest.mark.parametrize("machine_name", ["m1", "m2"])
    def test_matches_scalar_reference(self, data, m1, m2, machine_name):
        keys, values, sample = data
        machine = m1 if machine_name == "m1" else m2
        # two identically built trees: both walks start from the same
        # fresh cache/TLB state
        fast = ImplicitHBPlusTree(keys, values, machine=machine)
        ref = ImplicitHBPlusTree(keys, values, machine=machine)
        profiles, leaf = fast.level_profiles(sample)
        ref_profiles, ref_leaf = scalar_implicit_level_profiles(ref, sample)
        assert len(profiles) == fast.height
        assert [dataclasses.asdict(p) for p in profiles] == [
            dataclasses.asdict(p) for p in ref_profiles
        ]
        assert dataclasses.asdict(leaf) == dataclasses.asdict(ref_leaf)
        # the bottom levels miss: the comparison is not vacuous
        assert profiles[-1].misses > 0 and leaf.misses > 0


class TestSplitCostModel:
    def test_regular_default_sample_is_stored_keys(self, data, m2):
        # the default profile draws from the tree's stored keys; a
        # live sample of the very same draw prices identically
        keys, values, _sample = data
        tree = HBPlusTree(keys, values, machine=m2)
        default = SplitCostModel(tree)
        rng = np.random.default_rng(23)
        stored = tree.cpu_tree.stored_keys()
        live = rng.choice(stored, size=2048, replace=False)
        again = SplitCostModel(HBPlusTree(keys, values, machine=m2),
                               reprofile_on_init=False)
        again.reprofile(live)
        assert default.cpu_level_ns == again.cpu_level_ns
        assert default.leaf_ns == again.leaf_ns
        assert default.gpu_level_ns_by_kernel == again.gpu_level_ns_by_kernel
