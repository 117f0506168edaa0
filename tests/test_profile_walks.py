"""One instrumented walk per CPU layout prices everything CPU-side.

The steady-state profilers (``profile_regular`` / ``profile_implicit``)
must match their per-access oracles bit for bit, profile and memory
state alike; the regular walk's node streams must charge what the pure
GPU descent charges; and a walk over an empty sample prices zero work.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveController
from repro.core.framework import CssTreeAdapter
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.hybrid import profile_implicit, profile_regular
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.cpu.gapped import GappedCpuBPlusTree
from repro.gpusim.kernels.frontier_search import KERNELS
from repro.keys import key_spec
from repro.memsim.mainmem import MemorySystem
from repro.workloads.generators import generate_dataset
from tests.profile_oracles import (
    scalar_profile_implicit,
    scalar_profile_regular,
)
from tests.test_cost_sampling import mem_state

#: (layout, key bits, fill, LLC bytes); None = the default LLC
SHAPES = [
    ("regular", 64, 1.0, None),
    ("regular", 32, 0.7, None),
    ("regular", 64, 0.7, 1 << 15),
    ("gapped", 64, 0.7, None),
    ("implicit", 64, 1.0, None),
    ("implicit", 32, 1.0, 1 << 15),
]


def _build(layout, bits, fill, llc, keys, values):
    mem = MemorySystem() if llc is None else MemorySystem(llc_bytes=llc)
    if layout == "implicit":
        return ImplicitCpuBPlusTree(keys, values, key_bits=bits, mem=mem)
    cls = GappedCpuBPlusTree if layout == "gapped" else RegularCpuBPlusTree
    return cls(keys, values, key_bits=bits, mem=mem, fill=fill)


def _samples(keys, bits):
    spec = key_spec(bits)
    rng = np.random.default_rng(9)
    misses = rng.integers(0, spec.max_value, 400, dtype=spec.dtype)
    return {
        "sorted": np.sort(rng.choice(keys, 500, replace=False)),
        "random": rng.choice(keys, 500, replace=False),
        "duplicates": rng.choice(keys[:40], 500),
        "misses": np.concatenate([
            misses, keys[:96],
            np.array([0, spec.max_value - 1], dtype=spec.dtype),
        ]),
    }


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_profilers_match_per_access_oracles(shape, warm):
    layout, bits, fill, llc = shape
    keys, values = generate_dataset(1 << 13, seed=14, key_bits=bits)
    fast, ref = (_build(*shape, keys, values) for _ in range(2))
    profile, oracle = (
        (profile_implicit, scalar_profile_implicit)
        if layout == "implicit"
        else (profile_regular, scalar_profile_regular)
    )
    misses = []
    for name, sample in _samples(keys, bits).items():
        got = profile(fast, sample, warm=warm)
        assert got == oracle(ref, sample, warm=warm), name
        assert mem_state(fast.mem) == mem_state(ref.mem), name
        misses.append(got.misses)
    # the samples miss the cache: the comparison is not vacuous
    assert max(misses) > 0


@pytest.mark.parametrize("machine_name", ["m1", "m2"])
@pytest.mark.parametrize("case", [
    "plain", "gapped", "fill", "bits32", "split", "deleted",
    "one_key", "five_keys",
])
def test_regular_walk_streams_charge_the_gpu_descent(m1, m2, machine_name,
                                                     case):
    machine = m1 if machine_name == "m1" else m2
    bits = 32 if case == "bits32" else 64
    n = {"one_key": 1, "five_keys": 5}.get(case, 1 << 13)
    keys, values = generate_dataset(n, seed=21, key_bits=bits)
    tree = HBPlusTree(keys, values, machine=machine, key_bits=bits,
                      gapped=case == "gapped",
                      fill=0.7 if case == "fill" else 1.0)
    rng = np.random.default_rng(4)
    if case == "split":
        # leaf and root splits: the tree grows a level
        height = tree.height
        extra = rng.integers(1, 1 << 62, 8000, dtype=np.uint64)
        for k in extra.tolist():
            tree.cpu_tree.insert(k, k)
        assert tree.height == height + 1
        tree.mirror_i_segment()
    elif case == "deleted":
        for k in rng.choice(keys, len(keys) // 2, replace=False).tolist():
            tree.cpu_tree.delete(k)
        tree.mirror_i_segment()
    samples = _samples(keys, bits) if n > 40 else {
        "stored": np.repeat(keys, 3),
        "misses": np.array([0, 1, keys[-1] + 1], dtype=keys.dtype),
    }
    for name, sample in samples.items():
        counts = tree.cost_profile(sample).transactions
        assert counts == {
            kern: tree.modeled_transactions(sample, kernel=kern)
            for kern in KERNELS
        }, name


def test_regular_cost_profile_runs_no_gpu_descent(m1, monkeypatch):
    keys, values = generate_dataset(1 << 12, seed=2)
    tree = HBPlusTree(keys, values, machine=m1)

    def no_descent(*args, **kwargs):
        raise AssertionError("cost_profile descended on the GPU")

    monkeypatch.setattr(tree, "gpu_descend", no_descent)
    assert tree.cost_profile(keys[:256]).transactions["per_query"] > 0


def test_bucket_costs_descends_once(m1, monkeypatch):
    keys, values = generate_dataset(1 << 12, seed=2)
    tree = HBPlusTree(keys, values, machine=m1)
    calls = []
    real = tree.gpu_descend

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tree, "gpu_descend", counted)
    tree.bucket_costs()
    assert len(calls) == 1


def _css(keys, values, machine):
    return CssTreeAdapter(
        CssTree(keys, values, mem=MemorySystem.from_spec(machine.cpu)),
        machine,
    )


@pytest.mark.parametrize("kind", ["regular", "gapped", "implicit", "css"])
def test_empty_sample_walks_price_zero_work(m1, kind):
    keys, values = generate_dataset(1 << 12, seed=2)
    tree = {
        "regular": lambda: HBPlusTree(keys, values, machine=m1),
        "gapped": lambda: HBPlusTree(keys, values, machine=m1, gapped=True),
        "implicit": lambda: ImplicitHBPlusTree(keys, values, machine=m1),
        "css": lambda: _css(keys, values, m1),
    }[kind]()
    profile = tree.cost_profile(np.zeros(0, dtype=np.uint64))
    assert len(profile.levels) == tree.height
    for p in profile.levels + [profile.leaf]:
        assert p.misses == p.tlb_huge == 0.0
    assert all(p.tlb_small == 0.0 for p in profile.levels)
    assert profile.transactions == dict.fromkeys(KERNELS, 0)


def test_empty_tree_prices_without_dividing_by_zero(m1):
    tree = HBPlusTree(machine=m1)
    levels, leaf = tree.level_profiles(tree.key_sample(23, 2048))
    assert [p.misses for p in levels] == [0.0] * tree.height
    assert leaf.misses == 0.0
    assert profile_regular(tree.cpu_tree, np.zeros(0, np.uint64)).lines == 0
    controller = AdaptiveController.for_tree(tree)
    assert controller.balancer.gpu_level_ns == [0.0] * tree.height
    # the documented contract of the stored-key default stays
    with pytest.raises(ValueError, match="empty"):
        tree.bucket_costs()


class TestKeySample:
    @pytest.fixture(scope="class")
    def tree(self, m1):
        keys = np.arange(10, 110, dtype=np.uint64)
        return HBPlusTree(keys, keys, machine=m1)

    def test_without_replacement_caps_at_the_population(self, tree):
        s = tree.key_sample(23, 2048)
        assert len(s) == 100 and len(np.unique(s)) == 100
        assert np.array_equal(s, np.random.default_rng(23).choice(
            tree.stored_keys(), size=100, replace=False))

    def test_replacement_rule_is_kept(self, tree):
        s = tree.key_sample(11, 2048, replace=True)
        assert np.array_equal(s, np.random.default_rng(11).choice(
            tree.stored_keys(), size=100))

    def test_fill_replaces_only_on_a_small_tree(self, tree, m1):
        s = tree.key_sample(5, 4096, fill=True)
        assert np.array_equal(s, np.random.default_rng(5).choice(
            tree.stored_keys(), size=4096, replace=True))
        keys = np.arange(1, 5001, dtype=np.uint64)
        big = HBPlusTree(keys, keys, machine=m1)
        assert len(np.unique(big.key_sample(5, 4096, fill=True))) == 4096

    def test_empty_tree_gives_an_empty_sample(self, m1):
        tree = HBPlusTree(machine=m1)
        for kwargs in ({}, {"replace": True}, {"fill": True}):
            s = tree.key_sample(1, 64, **kwargs)
            assert len(s) == 0 and s.dtype == np.uint64
