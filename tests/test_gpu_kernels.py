"""GPU search kernels: literal SIMT execution vs vectorised twins.

The central equivalence property: for identical inputs, the Snippet-3
interpreter run and the numpy twin must produce identical leaf indexes,
and the twin's transaction accounting must match the interpreter's
tree-line transactions.
"""

import numpy as np
import pytest

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.gpusim.kernels.implicit_search import implicit_descend
from repro.workloads.generators import generate_dataset
from tests.kernel_oracles import literal_codes


@pytest.fixture(scope="module")
def hb_implicit(m1_module):
    keys, values = generate_dataset(3000, seed=3)
    return ImplicitHBPlusTree(keys, values, machine=m1_module), keys, values


@pytest.fixture(scope="module")
def m1_module():
    from repro.platform.configs import machine_m1
    return machine_m1()


class TestImplicitKernel:
    def test_literal_equals_vectorized(self, hb_implicit):
        tree, keys, _values = hb_implicit
        sample = keys[:96]
        literal = literal_codes(tree, sample)
        vector = tree.gpu_search_bucket(sample).codes
        assert np.array_equal(literal, vector)

    def test_leaf_indices_match_cpu_descend(self, hb_implicit):
        tree, keys, _values = hb_implicit
        sample = keys[:64]
        gpu_leaf = tree.gpu_search_bucket(sample).codes
        cpu_leaf = [tree.cpu_tree._descend(int(k), instrument=False)
                    for k in sample]
        assert gpu_leaf.tolist() == cpu_leaf

    def test_overflow_probe_stays_in_bounds(self, hb_implicit):
        tree, keys, _values = hb_implicit
        probe = np.asarray([int(keys.max()) + 5, 0], dtype=np.uint64)
        leaf = tree.gpu_search_bucket(probe).codes
        assert np.all(leaf < tree.cpu_tree.num_leaves)
        literal = literal_codes(tree, probe)
        assert np.array_equal(literal, leaf)

    def test_transactions_at_most_depth_per_query(self, hb_implicit):
        tree, keys, _values = hb_implicit
        sample = keys[:256]
        result = tree.gpu_search_bucket(sample)
        assert result.transactions <= len(sample) * tree.gpu_depth
        assert result.transactions > 0

    def test_root_line_shared_within_warp(self, hb_implicit):
        """All teams read the same root node: one transaction per warp
        at level 0, not one per query."""
        tree, keys, _values = hb_implicit
        sample = keys[:64]
        result = tree.gpu_search_bucket(sample)
        # strictly fewer than depth * queries thanks to warp sharing
        assert result.transactions < len(sample) * tree.gpu_depth

    def test_literal_kernel_stats(self, hb_implicit):
        tree, keys, _values = hb_implicit
        from repro.gpusim.kernels.implicit_search import launch_implicit_search
        sample = np.asarray(keys[:32], dtype=np.uint64)
        _out, stats = launch_implicit_search(
            tree.device, tree.iseg_buffer, tree.level_offsets,
            tree.gpu_depth, tree.cpu_tree.fanout, sample,
        )
        assert stats.barriers >= 2 * tree.gpu_depth
        assert stats.shared_accesses > 0
        assert stats.threads >= 32 * 8


class TestImplicitSearchFrom:
    def test_resume_from_zero_equals_full(self, hb_implicit):
        tree, keys, _values = hb_implicit
        q = np.asarray(keys[:128], dtype=np.uint64)
        zeros = np.zeros(len(q), dtype=np.int64)
        full, _txn = implicit_descend(
            tree.iseg_buffer.array, tree.level_offsets, tree.level_sizes,
            tree.gpu_depth, tree.cpu_tree.fanout, q, zeros, zeros, 4,
        )
        resumed, _txn = implicit_descend(
            tree.iseg_buffer.array, tree.level_offsets, tree.level_sizes,
            tree.gpu_depth, tree.cpu_tree.fanout, q,
            start_levels=np.zeros(len(q), dtype=np.int64),
            start_nodes=np.zeros(len(q), dtype=np.int64),
            group=4,
        )
        assert np.array_equal(full, resumed)

    def test_resume_mid_tree(self, hb_implicit):
        """CPU descends D levels, GPU resumes: same final leaf."""
        tree, keys, _values = hb_implicit
        ctree = tree.cpu_tree
        q = np.asarray(keys[:64], dtype=np.uint64)
        d = min(2, ctree.height)
        node = np.zeros(len(q), dtype=np.int64)
        for level in range(d):
            lk = ctree.inner_levels[level][node]
            k = np.sum(lk < q[:, None], axis=1).astype(np.int64)
            node = node * ctree.fanout + k
        resumed, _txn = implicit_descend(
            tree.iseg_buffer.array, tree.level_offsets, tree.level_sizes,
            tree.gpu_depth, ctree.fanout, q,
            start_levels=np.full(len(q), d, dtype=np.int64),
            start_nodes=node,
            group=4,
        )
        full = tree.gpu_search_bucket(q).codes
        assert np.array_equal(resumed, full)


class TestRegularKernel:
    @pytest.fixture(scope="class")
    def hb_regular(self, m1_module):
        keys, values = generate_dataset(3000, seed=5)
        return HBPlusTree(keys, values, machine=m1_module), keys, values

    def test_literal_equals_vectorized(self, hb_regular):
        tree, keys, _values = hb_regular
        sample = keys[:96]
        literal = literal_codes(tree, sample)
        vector = tree.gpu_search_bucket(sample).codes
        assert np.array_equal(literal, vector)

    def test_codes_address_correct_leaf_lines(self, hb_regular):
        tree, keys, values = hb_regular
        sample = keys[:128]
        codes = tree.gpu_search_bucket(sample).codes
        out = tree.cpu_finish_bucket(sample, codes)
        expect = values[:128]
        assert np.array_equal(out, expect)

    def test_three_transactions_per_upper_level(self, hb_regular):
        tree, keys, _values = hb_regular
        # one query -> no warp sharing beyond itself: exactly
        # 3 txns per upper level + 2 for the last level
        one = np.asarray(keys[:1], dtype=np.uint64)
        result = tree.gpu_search_bucket(one)
        h = tree.cpu_tree.height
        assert result.transactions == 3 * (h - 1) + 2

    def test_overflow_probe(self, hb_regular):
        tree, keys, _values = hb_regular
        probe = np.asarray([int(keys.max()) + 77], dtype=np.uint64)
        codes = tree.gpu_search_bucket(probe).codes
        literal = literal_codes(tree, probe)
        assert np.array_equal(codes, literal)
        assert tree.cpu_finish_bucket(probe, codes)[0] == tree.spec.max_value


class Test32BitKernels:
    def test_implicit_32bit(self, m1_module):
        keys, values = generate_dataset(2000, key_bits=32, seed=9)
        tree = ImplicitHBPlusTree(keys, values, machine=m1_module,
                                  key_bits=32)
        sample = keys[:64]
        literal = literal_codes(tree, sample)
        vector = tree.gpu_search_bucket(sample).codes
        assert np.array_equal(literal, vector)
        assert np.array_equal(tree.lookup_batch(keys), values)

    def test_regular_32bit(self, m1_module):
        keys, values = generate_dataset(2000, key_bits=32, seed=10)
        tree = HBPlusTree(keys, values, machine=m1_module, key_bits=32)
        assert np.array_equal(tree.lookup_batch(keys), values)
