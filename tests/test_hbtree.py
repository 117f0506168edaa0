"""Hybrid trees: segment placement, search path, mirrors, costs."""

import numpy as np
import pytest

from repro.bench.wallclock import sync_node
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.memsim.allocator import PageKind
from repro.workloads.generators import generate_dataset


@pytest.fixture(scope="module")
def data():
    return generate_dataset(3000, seed=21)


@pytest.fixture()
def hbi(data, m1):
    keys, values = data
    return ImplicitHBPlusTree(keys, values, machine=m1)


@pytest.fixture()
def hbr(data, m1):
    keys, values = data
    return HBPlusTree(keys, values, machine=m1)


class TestImplicitHybrid:
    def test_lookup_batch_correct(self, hbi, data):
        keys, values = data
        assert np.array_equal(hbi.lookup_batch(keys), values)

    def test_scalar_lookup(self, hbi, data):
        keys, values = data
        assert hbi.lookup(int(keys[0])) == int(values[0])
        assert hbi.lookup(int(keys.max()) + 3) is None

    def test_hybrid_equals_cpu_only_search(self, hbi, data):
        """The heterogeneous path and the CPU-only path must agree."""
        keys, _values = data
        hybrid = hbi.lookup_batch(keys[:512])
        cpu = hbi.cpu_tree.lookup_batch(keys[:512])
        assert np.array_equal(hybrid, cpu)

    def test_fanout_is_hybrid_fanout(self, hbi):
        assert hbi.cpu_tree.fanout == 8

    def test_i_segment_mirrored_to_device(self, hbi):
        assert "iseg" in hbi.device.memory
        total_inner = sum(hbi.level_sizes)
        assert hbi.iseg_buffer.array.size == total_inner

    def test_mirror_matches_cpu_levels(self, hbi):
        flat = hbi.iseg_buffer.array
        for level, (off, size) in enumerate(
            zip(hbi.level_offsets, hbi.level_sizes)
        ):
            cpu_level = hbi.cpu_tree.inner_levels[level].reshape(-1)
            assert np.array_equal(flat[off: off + size], cpu_level)

    def test_l_segment_stays_on_cpu(self, hbi):
        # leaves live in CPU memory only (Fig 4)
        assert hbi.cpu_tree.l_segment is not None
        assert hbi.l_segment_bytes == hbi.cpu_tree.num_leaves * 64

    def test_transfer_stats_recorded(self, hbi):
        assert hbi.link.stats.transfers >= 1
        assert hbi.link.stats.bytes_to_device >= hbi.i_segment_bytes

    def test_range_query(self, hbi, data):
        keys, _values = data
        sk = np.sort(keys)
        got = hbi.range_query(int(sk[5]), int(sk[25]))
        assert len(got) == 21

    def test_len_and_contains(self, hbi, data):
        keys, _values = data
        assert len(hbi) == len(keys)
        assert int(keys[0]) in hbi

    def test_rebuild_times_and_correctness(self, hbi):
        nk, nv = generate_dataset(2000, seed=77)
        times = hbi.rebuild(nk, nv)
        assert np.array_equal(hbi.lookup_batch(nk), nv)
        assert times.l_segment_ns > times.i_segment_ns
        assert times.transfer_ns > 0

    def test_rebuild_transfer_fraction_small_for_big_trees(self, m1):
        """Paper Fig 15: I-segment transfer is a small share (3-7%) of
        the reconstruction cost once T_init amortizes."""
        nk, nv = generate_dataset(65536, seed=78)
        tree = ImplicitHBPlusTree(nk[:100], nv[:100], machine=m1)
        times = tree.rebuild(nk, nv)
        assert times.transfer_fraction < 0.15

    def test_bucket_costs_positive(self, hbi):
        costs = hbi.bucket_costs(8192)
        for t in (costs.t1, costs.t2, costs.t3, costs.t4):
            assert t > 0

    def test_bucket_cost_ordering(self, hbi):
        """Strategy closed forms: sequential >= pipelined >= max(T2,T4)."""
        c = hbi.bucket_costs(16384)
        assert c.sequential >= c.pipelined >= max(c.t2, c.t4)


class TestRegularHybrid:
    def test_lookup_batch_correct(self, hbr, data):
        keys, values = data
        assert np.array_equal(hbr.lookup_batch(keys), values)

    def test_hybrid_equals_cpu_only_search(self, hbr, data):
        keys, _values = data
        hybrid = hbr.lookup_batch(keys[:512])
        cpu = hbr.cpu_tree.lookup_batch(keys[:512])
        assert np.array_equal(hybrid, cpu)

    def test_node_stride_is_17_lines(self, hbr):
        assert hbr.node_stride * 8 == 17 * 64

    def test_mirror_pins_last_used_key(self, hbr):
        """Device copies pin key[size-1] to MAX (section 5.3)."""
        stride = hbr.node_stride
        kpl = hbr.spec.keys_per_line
        flat = hbr.iseg_buffer.array
        for node in range(hbr.cpu_tree.last.count):
            slot = hbr.last_base + node
            keys = flat[slot * stride + kpl: slot * stride + kpl + 64]
            size = max(1, int(hbr.cpu_tree.last.size[node]))
            assert keys[size - 1] == hbr.spec.max_value

    def test_sync_node_updates_mirror(self, hbr, data):
        keys, _values = data
        # mutate one leaf's keys via an insert that fits in place
        new_key = int(keys.max()) + 1
        hbr.cpu_tree.insert(new_key, 42)
        node, _line = hbr.cpu_tree._descend(new_key, instrument=False)
        sync_node(hbr, node)
        assert hbr.lookup(new_key) == 42

    def test_stale_mirror_detected_by_lookup(self, hbr, data):
        """Without a sync, the GPU mirror cannot see a new key whose
        routing changed — proving the mirror is really consulted."""
        keys, _values = data
        probe = int(keys.max()) + 1000
        hbr.cpu_tree.insert(probe, 7)
        # CPU-only search sees it...
        assert hbr.cpu_tree.lookup(probe, instrument=False) == 7
        # ...and after the mirror refresh so does the hybrid path
        hbr.mirror_i_segment()
        assert hbr.lookup(probe) == 7

    def test_bucket_costs(self, hbr):
        costs = hbr.bucket_costs(8192)
        assert costs.t2 > 0 and costs.t4 > 0

    def test_machine_required(self, data):
        keys, values = data
        with pytest.raises(ValueError):
            HBPlusTree(keys, values, machine=None)


class TestDeviceCapacity:
    def test_iseg_must_fit_device_memory(self, data, m1):
        """Mirroring fails once the I-segment exceeds GPU memory — the
        capacity wall the paper's design accepts for the I-segment
        (while the far bigger L-segment stays in host memory)."""
        keys, values = data
        tiny_gpu = m1.with_gpu(device_mem_bytes=1024)
        with pytest.raises(MemoryError):
            ImplicitHBPlusTree(keys, values, machine=tiny_gpu)

    def test_l_segment_larger_than_i_segment(self, hbi):
        """The rationale for the split (section 5.2): leaves need more
        space than inner nodes."""
        assert hbi.l_segment_bytes > hbi.i_segment_bytes
