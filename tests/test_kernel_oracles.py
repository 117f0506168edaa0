"""One-pass GPU-stage kernels against their per-level oracles
(DESIGN.md §8, §13).

The vectorised kernels search a regular node with a branchless lower
bound and count every bucket's coalesced transactions in one pass over
all of its level streams.  The oracles in :mod:`tests.kernel_oracles`
compare every key of every node and count each stream on its own; codes
and transaction counts must match exactly, on bulk-built trees,
gapped trees and trees grown by splits (pool order differs from key
order there), for every query order and every coalescing window.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.wallclock import arrival_order_transactions
from repro.core.adaptive import StaticSplit
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.faults import FaultInjector, FaultPlan
from repro.gpusim.kernels.coalesce import windowed_distinct
from repro.gpusim.kernels.frontier_search import FRONTIER, KERNELS
from repro.gpusim.kernels.implicit_search import implicit_descend
from repro.gpusim.kernels.regular_search import regular_search_vectorized
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset
from tests.kernel_oracles import (
    implicit_search_from_ref,
    regular_finish_ref,
    regular_search_ref,
    warp_distinct_ref,
)

PROPS = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _grow(tree, n, seed):
    """Insert ``n`` random keys so leaves and inner nodes split."""
    rng = np.random.default_rng(seed)
    hi = int(tree.cpu_tree.stored_keys().max())
    for k in rng.integers(1, hi, n, dtype=np.uint64).tolist():
        tree.cpu_tree.insert(int(k), int(k) & 0xFFFF)
    tree.mirror_i_segment()
    return tree


@pytest.fixture(scope="module")
def regular_trees():
    m = machine_m1()
    keys, values = generate_dataset(3000, seed=31)
    k32, v32 = generate_dataset(3000, key_bits=32, seed=31)
    trees = {
        "regular": HBPlusTree(keys, values, machine=m),
        "gapped": HBPlusTree(keys, values, machine=m, gapped=True),
        "grown": _grow(HBPlusTree(keys[:1500], values[:1500], machine=m),
                       2500, 1),
        "gapped-grown": _grow(
            HBPlusTree(keys[:1500], values[:1500], machine=m, gapped=True),
            2500, 2),
        "regular32": HBPlusTree(k32, v32, machine=m, key_bits=32),
    }
    for name in ("grown", "gapped-grown"):
        chain = trees[name].cpu_tree.leaf_chain()
        assert not np.all(np.diff(chain) > 0), f"{name}: no pool reorder"
    for tree in trees.values():
        tree.cpu_tree.check_invariants()
    return trees


@pytest.fixture(scope="module")
def itree():
    keys, values = generate_dataset(4000, seed=32)
    return ImplicitHBPlusTree(keys, values, machine=machine_m1())


def _queries(tree, data, n):
    """Stored keys, misses above the largest key, both key extremes,
    in sorted, arrival or duplicate-heavy order."""
    stored = tree.stored_keys()
    top = tree.spec.max_value - 1
    pool = np.concatenate([
        stored,
        np.asarray([0, top, int(stored.max()) + 1], dtype=tree.spec.dtype),
    ])
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1),
                             min_size=n, max_size=n))
    q = pool[np.asarray(idx, dtype=np.int64)].astype(tree.spec.dtype)
    order = data.draw(st.sampled_from(["sorted", "arrival", "duplicates"]))
    if order == "sorted":
        q = np.sort(q)
    elif order == "duplicates":
        q = np.sort(np.resize(q[: max(1, n // 4)], n))
    return q


def _regular_args(tree):
    return (tree.iseg_buffer.array, tree.node_stride,
            tree.spec.keys_per_line, tree.cpu_tree.fanout,
            tree.cpu_tree.height, tree.cpu_tree.root, tree.last_base)


class TestWindowedDistinct:
    @given(st.lists(st.lists(st.integers(0, 30), min_size=7, max_size=7),
                    min_size=1, max_size=6),
           st.sampled_from([1, 2, 3, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_matrix_equals_per_row_reference(self, rows, group):
        m = np.asarray(rows, dtype=np.int64)
        want = sum(warp_distinct_ref(r, group) for r in m)
        assert windowed_distinct(m, group) == want

    @given(st.data(), st.sampled_from([1, 2, 4, 5]))
    @settings(max_examples=80, deadline=None)
    def test_lengths_restrict_rows_to_their_prefix(self, data, group):
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 12))
        m = np.asarray(data.draw(st.lists(
            st.integers(0, 9), min_size=k * n, max_size=k * n)),
            dtype=np.int64).reshape(k, n)
        lengths = data.draw(st.lists(st.integers(0, n), min_size=k,
                                     max_size=k))
        want = sum(warp_distinct_ref(r[:length], group)
                   for r, length in zip(m, lengths))
        assert windowed_distinct(m.copy(), group, lengths) == want

    def test_empty_and_bad_window(self):
        assert windowed_distinct(np.zeros((3, 0), dtype=np.int64), 4) == 0
        with pytest.raises(ValueError):
            windowed_distinct(np.zeros(4, dtype=np.int64), 0)


class TestRegularKernel:
    @given(st.data(), st.integers(1, 300), st.sampled_from([1, 2, 4, 8]))
    @PROPS
    def test_codes_and_transactions_match_oracle(
        self, regular_trees, data, n, teams
    ):
        name = data.draw(st.sampled_from(sorted(regular_trees)))
        tree = regular_trees[name]
        q = _queries(tree, data, n)
        block = data.draw(st.sampled_from([None, n, 7, 64]))
        args = _regular_args(tree)
        got = regular_search_vectorized(*args, q, group=block or teams)
        want = regular_search_ref(*args, q, teams_per_warp=teams,
                                  frontier_block=block)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    @given(st.data(), st.integers(1, 300))
    @PROPS
    def test_leaf_finish_matches_oracle(self, regular_trees, data, n):
        name = data.draw(st.sampled_from(sorted(regular_trees)))
        tree = regular_trees[name]
        q = _queries(tree, data, n)
        codes, _txns = tree.gpu_descend(q)
        got = tree.cpu_finish_bucket(q, codes)
        want = regular_finish_ref(tree, q, codes)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(got, tree.cpu_tree.lookup_batch(q))


class TestImplicitKernels:
    @given(st.data(), st.integers(1, 300), st.sampled_from([1, 2, 4, 8]))
    @PROPS
    def test_full_descent_matches_oracle(self, itree, data, n, teams):
        q = _queries(itree, data, n)
        args = (itree.iseg_buffer.array, itree.level_offsets,
                itree.level_sizes, itree.gpu_depth, itree.cpu_tree.fanout)
        zeros = np.zeros(n, dtype=np.int64)
        got = implicit_descend(*args, q, zeros, zeros, teams)
        want = implicit_search_from_ref(*args, q, zeros, zeros, teams)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        block = data.draw(st.sampled_from([None, 7, 64]))
        got = implicit_descend(*args, q, zeros, zeros, block or n)
        want = implicit_search_from_ref(*args, q, zeros, zeros, block or n)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    @given(st.data(), st.integers(1, 300), st.sampled_from([1, 2, 4, 8]))
    @PROPS
    def test_split_descent_counts_only_gpu_levels(self, itree, data, n,
                                                  teams):
        q = _queries(itree, data, n)
        depth = itree.gpu_depth
        levels = np.asarray(data.draw(st.lists(
            st.integers(0, depth), min_size=n, max_size=n)), dtype=np.int64)
        nodes = itree.cpu_descend_top(q, levels)
        args = (itree.iseg_buffer.array, itree.level_offsets,
                itree.level_sizes, depth, itree.cpu_tree.fanout, q)
        got = implicit_descend(*args, levels, nodes, teams)
        want = implicit_search_from_ref(*args, levels, nodes, teams)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        block = data.draw(st.sampled_from([None, 7, 64]))
        got = implicit_descend(*args, levels, nodes, block or n)
        want = implicit_search_from_ref(*args, levels, nodes, block or n)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


# ----------------------------------------------------------------------
# counter pin: modeled device counters of fixed buckets, recorded with
# the per-level kernels

GOLDEN = {
    ("regular", "per_query"): (3134, 5),
    ("regular", "frontier"): (1437, 5),
    ("gapped", "per_query"): (3134, 5),
    ("gapped", "frontier"): (1437, 5),
    ("grown", "per_query"): (4755, 5),
    ("grown", "frontier"): (1919, 5),
    ("gapped-grown", "per_query"): (4833, 5),
    ("gapped-grown", "frontier"): (2031, 5),
    ("implicit", "per_query"): (2562, 5),
    ("implicit", "frontier"): (1220, 5),
    ("implicit-split", "per_query"): (1926, 5),
    ("implicit-split", "frontier"): (1200, 5),
}


def _golden_tree(kind):
    keys, values = generate_dataset(2**14, seed=1415)
    m = machine_m1()
    if kind.startswith("implicit"):
        return ImplicitHBPlusTree(keys, values, machine=m)
    tree = HBPlusTree(keys, values, machine=m,
                      gapped=kind.startswith("gapped"))
    if kind.endswith("grown"):
        rng = np.random.default_rng(14)
        for k in rng.integers(1, int(keys.max()), 4096,
                              dtype=np.uint64).tolist():
            tree.cpu_tree.insert(int(k), int(k) & 0xFFFF)
        tree.mirror_i_segment()
    return tree


def _golden_queries(tree):
    """Uniform hits, misses above the largest key, a Zipf run and a
    sorted repeat: 2152 queries, five 512-query buckets."""
    rng = np.random.default_rng(1415)
    stored = tree.stored_keys()
    uniform = rng.choice(stored, 1024)
    misses = rng.integers(int(stored.max()) + 1, 2**64 - 1, 128,
                          dtype=np.uint64)
    zipf = stored[np.minimum(rng.zipf(1.3, 700), len(stored)) - 1]
    return np.concatenate([uniform, misses, zipf, np.sort(uniform[:300])])


@pytest.mark.parametrize("kind,kernel", sorted(GOLDEN))
def test_golden_engine_counters(kind, kernel):
    tree = _golden_tree(kind)
    if kind == "implicit-split":
        engine = BatchingEngine(tree, bucket_size=512,
                                balancer=StaticSplit(1, 0.5, kernel=kernel))
    else:
        engine = BatchingEngine(tree, bucket_size=512, kernel=kernel)
    q = _golden_queries(tree)
    values = engine.lookup_batch(q)
    assert np.array_equal(values, tree.cpu_tree.lookup_batch(q))
    counters = (tree.device.memory.counters.transactions_64,
                tree.device.kernel_launches)
    assert counters == GOLDEN[(kind, kernel)]


# ----------------------------------------------------------------------
# pricing never touches the device


def _device_state(tree, injector):
    return (tree.device.kernel_launches,
            dataclasses.replace(tree.device.memory.counters),
            injector.schedule(), injector.stats.kernel_ops)


@pytest.mark.parametrize("kind", ["regular", "implicit"])
def test_pricing_leaves_device_and_injector_alone(kind):
    keys, values = generate_dataset(2**12, seed=77)
    m = machine_m1()
    injector = FaultInjector(FaultPlan(kernel_fail=1.0))
    if kind == "regular":
        tree = HBPlusTree(keys, values, machine=m, injector=injector)
    else:
        tree = ImplicitHBPlusTree(keys, values, machine=m)
        tree.device.injector = injector
    before = _device_state(tree, injector)
    costs = tree.bucket_costs()
    sorted_costs = tree.bucket_costs(sort_batches=True)
    tree.profile_leaf_stage(keys[:256])
    assert _device_state(tree, injector) == before
    assert costs.t2 > 0 and sorted_costs.t2 > 0
    # the always-failing plan really is armed for serving
    with pytest.raises(Exception):
        tree.gpu_search_bucket(keys[:8])


@pytest.mark.parametrize("kernel", KERNELS)
def test_baseline_priced_with_the_bucket_kernel(kernel):
    keys, values = generate_dataset(2**13, seed=78)
    tree = ImplicitHBPlusTree(keys, values, machine=machine_m1())
    rng = np.random.default_rng(5)
    q = rng.choice(keys, 2048)
    engine = BatchingEngine(tree, bucket_size=2048, kernel=kernel)
    baseline = arrival_order_transactions(engine, q)
    assert baseline == tree.modeled_transactions(q, kernel=kernel)
    if kernel == FRONTIER:
        assert baseline != tree.modeled_transactions(q)
