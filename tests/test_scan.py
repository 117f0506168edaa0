"""The batched range-scan path (PR 9).

Covers, in one place, what DESIGN.md §15 promises:

* the vectorised leaf-chain scan is result- AND modeled-counter-
  identical to the scalar reference walk, full path and leaf stage,
  on every leaf layout (regular, gapped, half-full gapped, implicit);
* ``BatchingEngine.run_scans``, with no policy and under a
  ``ResilientHBPlusTree`` policy with and without an injected fault
  plan, is bit-identical to the sequential ``range_query`` walk;
* scans serialize against quiesce/snapshot windows through the shared
  serve lock, in both directions;
* ``bucket_costs`` samples its workload without replacement whenever
  the tree can fill the bucket (the PR-9 sampling regression);
* property-based: all three layouts agree with each other and with a
  sorted reference model on arbitrary spans.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scan import range_scan_from_scalar
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.resilience import ResilientHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.faults import FaultInjector, FaultPlan
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_scan_queries
from tests.scan_oracles import range_query_scalar


@pytest.fixture(scope="module")
def data():
    return generate_dataset(4096, seed=17)


def _spans(keys, n, width, seed=3):
    sk = np.sort(np.asarray(keys))
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(sk) - width, size=n)
    return [(int(sk[s]), int(sk[s + width - 1])) for s in starts]


def _edge_spans(keys):
    """The boundary shapes the scan loops special-case."""
    sk = np.sort(np.asarray(keys))
    return [
        (int(sk[0]), int(sk[0])),              # single first key
        (int(sk[-1]), int(sk[-1])),            # single last key
        (int(sk[-1]), int(sk[-1]) + 4096),     # hi past the last leaf
        (0, int(sk[2])),                       # lo before the first key
        (int(sk[100]), int(sk[50])),           # lo > hi
        (int(sk[7]) + 1, int(sk[7]) + 1) if sk[7] + 1 < sk[8]
        else (int(sk[7]), int(sk[7])),         # span between stored keys
    ]


def _counter_delta(tree, fn):
    before = dict(vars(tree.mem.counters))
    out = fn()
    after = vars(tree.mem.counters)
    return out, {k: v - before[k] for k, v in after.items()}


TREE_VARIANTS = [
    ("regular", dict()),
    ("gapped", dict(gapped=True)),
    ("gapped-half", dict(gapped=True, fill=0.5)),
]


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("name,kwargs", TREE_VARIANTS,
                             ids=[v[0] for v in TREE_VARIANTS])
    def test_full_path_results_and_counters(self, data, m1, name, kwargs):
        keys, values = data
        cases = _spans(keys, 24, 80) + _edge_spans(keys)
        ts = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        tv = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        rs, ds = _counter_delta(
            ts, lambda: [range_query_scalar(ts, lo, hi) for lo, hi in cases]
        )
        rv, dv = _counter_delta(
            tv, lambda: [tv.range_query(lo, hi) for lo, hi in cases]
        )
        assert rs == rv
        assert ds == dv

    def test_full_path_implicit(self, data, m1):
        keys, values = data
        cases = _spans(keys, 24, 80) + _edge_spans(keys)
        ts = ImplicitHBPlusTree(keys, values, machine=m1).cpu_tree
        tv = ImplicitHBPlusTree(keys, values, machine=m1).cpu_tree
        rs, ds = _counter_delta(
            ts, lambda: [range_query_scalar(ts, lo, hi) for lo, hi in cases]
        )
        rv, dv = _counter_delta(
            tv, lambda: [tv.range_query(lo, hi) for lo, hi in cases]
        )
        assert rs == rv
        assert ds == dv

    @pytest.mark.parametrize("name,kwargs", TREE_VARIANTS,
                             ids=[v[0] for v in TREE_VARIANTS])
    def test_leaf_stage_from_exact_and_early_leaves(self, data, m1,
                                                    name, kwargs):
        """``range_scan_from_scalar`` vs ``range_scan_from``, both from
        the exact descend leaf and from the leaf before it (the GPU
        bucket stage may hand the walk an at-or-before start leaf)."""
        keys, values = data
        cases = _spans(keys, 16, 200) + _edge_spans(keys)
        ts = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        tv = HBPlusTree(keys, values, machine=m1, **kwargs).cpu_tree
        triples = []
        for lo, hi in cases:
            node = ts._descend(int(lo), instrument=False)[0]
            triples.append((node, lo, hi))
            prev = int(ts.leaves.prev[node])
            if prev >= 0:
                triples.append((prev, lo, hi))
        rs, ds = _counter_delta(ts, lambda: [
            range_scan_from_scalar(ts, n, lo, hi) for n, lo, hi in triples
        ])
        rv, dv = _counter_delta(tv, lambda: [
            tv.range_scan_from(n, lo, hi) for n, lo, hi in triples
        ])
        assert rs == rv
        assert ds == dv

    def test_leaf_stage_matches_full_path_results(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1).cpu_tree
        for lo, hi in _spans(keys, 8, 120, seed=9):
            node = tree._descend(int(lo), instrument=False)[0]
            assert tree.range_scan_from(node, lo, hi) \
                == tree.range_query(lo, hi)


class TestEngineBitIdentity:
    @pytest.mark.parametrize(
        "cls,adaptive",
        [(HBPlusTree, False), (ImplicitHBPlusTree, False),
         (ImplicitHBPlusTree, True)],
        ids=["regular", "implicit", "implicit-adaptive"])
    def test_batching_matches_walk(self, data, m1, cls, adaptive):
        keys, values = data
        los, his = make_scan_queries(keys, 96, 48, dist="geometric",
                                     seed=5)
        ref_tree = cls(keys, values, machine=m1)
        ref = [ref_tree.range_query(int(lo), int(hi))
               for lo, hi in zip(los.tolist(), his.tolist())]
        tree = cls(keys, values, machine=m1)
        # the adaptive loop closes a window every two scan buckets and
        # must apply the live scan profile without moving an answer
        controller = AdaptiveController.for_tree(
            tree, config=AdaptiveConfig(window_buckets=2,
                                        min_window_queries=32,
                                        sample_size=256),
        ) if adaptive else None
        batch = BatchingEngine(tree, bucket_size=32, balancer=controller)
        assert batch.run_scans(los, his) == ref
        assert batch.stats.scan_tuples == sum(len(r) for r in ref)
        if adaptive:
            assert controller.stats.windows > 0
            assert controller.balancer.scan_share > 0.0

    def test_resilient_matches_walk_under_faults(self, data, m1):
        keys, values = data
        los, his = make_scan_queries(keys, 64, 32, dist="geometric",
                                     seed=6)
        ref_tree = HBPlusTree(keys, values, machine=m1)
        ref = [ref_tree.range_query(int(lo), int(hi))
               for lo, hi in zip(los.tolist(), his.tolist())]
        plain = ResilientHBPlusTree(HBPlusTree(keys, values, machine=m1))
        assert plain.engine.run_scans(los, his) == ref
        faulted_tree = HBPlusTree(keys, values, machine=m1)
        injector = FaultInjector(FaultPlan.uniform(0.5, seed=23))
        faulted_tree.attach_injector(injector)
        faulted = ResilientHBPlusTree(faulted_tree, injector=injector)
        assert faulted.engine.run_scans(los, his) == ref
        assert faulted.stats.faults_handled > 0


class TestServeLockSerialization:
    """Scans and quiesce/snapshot windows exclude each other through
    the tree's shared serve lock — in both directions."""

    def test_scan_waits_for_quiesce_window(self, data, m1):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        lo, hi = _spans(keys, 1, 64)[0]
        ref = tree.range_query(lo, hi)
        done = threading.Event()
        out = []

        def scanner():
            out.append(tree.range_query(lo, hi))
            done.set()

        with tree.serve_lock:  # an open quiesce/snapshot window
            worker = threading.Thread(target=scanner)
            worker.start()
            # the scan must not slip inside the window
            assert not done.wait(0.2)
        worker.join(5)
        assert done.is_set()
        assert out[0] == ref

    def test_quiesce_waits_for_inflight_scan(self, data, m1,
                                             monkeypatch):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        engine = BatchingEngine(tree)
        lo, hi = _spans(keys, 1, 64)[0]
        inside = threading.Event()
        release = threading.Event()
        real = tree.cpu_tree.range_query

        def held_open(lo_, hi_):
            inside.set()
            release.wait(5)
            return real(lo_, hi_)

        monkeypatch.setattr(tree.cpu_tree, "range_query", held_open)
        out = []
        scanner = threading.Thread(
            target=lambda: out.append(tree.range_query(lo, hi))
        )
        scanner.start()
        assert inside.wait(5)
        quiesced = threading.Event()

        def snapshot():
            with engine.quiesce():
                pass
            quiesced.set()

        snapshotter = threading.Thread(target=snapshot)
        snapshotter.start()
        # the snapshot window must wait for the scan to drain
        assert not quiesced.wait(0.2)
        release.set()
        scanner.join(5)
        snapshotter.join(5)
        assert quiesced.is_set()
        monkeypatch.undo()
        assert out[0] == tree.range_query(lo, hi)


class TestBucketCostsSampling:
    def test_sample_drawn_without_replacement(self, data, m1,
                                              monkeypatch):
        """With >= 4096 stored keys the sampled bucket must be all
        distinct: duplicate draws inflate the sample's unique fraction
        and bias the sorted-pipeline gain the planner commits (the
        PR-9 sampling regression)."""
        import repro.core.batching as batching_mod

        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        assert len(tree.cpu_tree.stored_keys()) >= 4096
        captured = {}
        real_plan = batching_mod.plan_bucket

        def spy(sample, dtype=None):
            captured["n"] = len(sample)
            captured["unique"] = len(np.unique(sample))
            return real_plan(sample, dtype=dtype)

        monkeypatch.setattr(batching_mod, "plan_bucket", spy)
        tree.bucket_costs(sort_batches=True)
        assert captured["n"] == 4096
        assert captured["unique"] == captured["n"]


# -- property-based: the three layouts agree with a sorted model ------

_KEYS = st.lists(st.integers(min_value=0, max_value=1 << 48),
                 min_size=2, max_size=220, unique=True)


@settings(max_examples=30, deadline=None)
@given(keys=_KEYS, data=st.data())
def test_layouts_agree_with_sorted_model(keys, data):
    keys = np.sort(np.asarray(keys, dtype=np.uint64))
    values = np.arange(1, len(keys) + 1, dtype=np.uint64)
    lo = data.draw(st.one_of(
        st.sampled_from(keys.tolist()),
        st.integers(min_value=0, max_value=1 << 48),
    ), label="lo")
    hi = data.draw(st.one_of(
        st.sampled_from(keys.tolist()),
        st.integers(min_value=0, max_value=1 << 48),
    ), label="hi")
    lo, hi = int(lo), int(hi)
    model = [
        (int(k), int(v)) for k, v in zip(keys.tolist(), values.tolist())
        if lo <= k <= hi
    ]
    trees = [
        RegularCpuBPlusTree(keys, values),
        GappedCpuBPlusTree(keys, values, fill=0.6),
        ImplicitCpuBPlusTree(keys, values),
    ]
    for tree in trees:
        assert tree.range_query(lo, hi) == model
        assert range_query_scalar(tree, lo, hi) == model


@settings(max_examples=15, deadline=None)
@given(keys=_KEYS)
def test_leaf_stage_twins_agree_on_any_start_leaf(keys):
    """``range_scan_from`` ≡ ``range_scan_from_scalar`` from *every*
    leaf in the chain, not just the descend leaf."""
    keys = np.sort(np.asarray(keys, dtype=np.uint64))
    values = np.arange(1, len(keys) + 1, dtype=np.uint64)
    lo, hi = int(keys[len(keys) // 3]), int(keys[2 * len(keys) // 3])
    for cls, kwargs in ((RegularCpuBPlusTree, {}),
                        (GappedCpuBPlusTree, {"fill": 0.5})):
        tree = cls(keys, values, **kwargs)
        for node in tree.leaf_chain().tolist():
            assert tree.range_scan_from(node, lo, hi) \
                == range_scan_from_scalar(tree, node, lo, hi)


def test_empty_and_single_leaf_trees():
    empty_keys = np.asarray([], dtype=np.uint64)
    for cls in (RegularCpuBPlusTree, GappedCpuBPlusTree):
        tree = cls(empty_keys, empty_keys)
        assert tree.range_query(0, 1 << 40) == []
        assert range_query_scalar(tree, 0, 1 << 40) == []
    keys = np.asarray([10, 20, 30], dtype=np.uint64)
    values = np.asarray([1, 2, 3], dtype=np.uint64)
    for cls in (RegularCpuBPlusTree, GappedCpuBPlusTree,
                ImplicitCpuBPlusTree):
        tree = cls(keys, values)
        assert tree.range_query(10, 30) == [(10, 1), (20, 2), (30, 3)]
        assert tree.range_query(15, 25) == [(20, 2)]
        assert tree.range_query(31, 40) == []
        assert tree.range_query(25, 15) == []
