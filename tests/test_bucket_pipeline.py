"""One bucket pipeline under every serving path.

* ``Shard.quiesce()`` parks lookups *and* updates on every kind of
  shard, the fault-drilled resilient one included;
* the implicit tree's kernel launches reach the live obs counters;
* the resilient wrapper serves hybrid lookups through the batch engine:
  same device counters, same fault schedule as the engine itself.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.resilience import ResilienceConfig, ResilientHBPlusTree
from repro.faults import FaultInjector, FaultPlan, KernelLaunchFault
from repro.obs import Observability
from repro.service.shard import Shard
from repro.workloads.generators import generate_dataset

SHARDS = {
    "plain hb-regular": dict(kind="hb-regular"),
    "adaptive hb-implicit": dict(kind="hb-implicit", adaptive=True),
    "fault-drilled hb-regular": dict(
        kind="hb-regular", fault_plan=FaultPlan.uniform(0.05, seed=3)
    ),
}


@pytest.fixture(scope="module")
def data():
    keys, values = generate_dataset(2048, key_bits=64, seed=19)
    order = np.argsort(keys)
    return keys[order], values[order]


def device_counters(tree):
    c = tree.device.memory.counters
    return (int(tree.device.kernel_launches), int(c.transactions_64),
            int(c.bytes_moved))


@pytest.mark.parametrize("config", sorted(SHARDS))
def test_quiesce_parks_lookups_and_updates(data, m1, config):
    keys, values = data
    shard = Shard(0, keys, values, machine=m1, **SHARDS[config])
    probe = keys[::32]
    fresh = int(keys[-1]) + 1
    done = {}

    def lookup():
        done["lookup"] = shard.lookup_batch(probe)

    def update():
        shard.apply_updates([fresh], [7])
        done["update"] = True

    threads = [threading.Thread(target=fn) for fn in (lookup, update)]
    with shard.quiesce():
        for t in threads:
            t.start()
        time.sleep(0.2)
        assert done == {}
        assert all(t.is_alive() for t in threads)
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    np.testing.assert_array_equal(done["lookup"], values[::32])
    assert done["update"]
    assert shard.lookup_batch([fresh]).tolist() == [7]


def test_implicit_launches_reach_obs(m1):
    keys, values = generate_dataset(1024, seed=4)
    tree = ImplicitHBPlusTree(keys, values, machine=m1)
    obs = Observability()
    tree.attach_obs(obs)
    BatchingEngine(tree, bucket_size=128).lookup_batch(np.tile(keys[:200], 2))
    assert tree.device.kernel_launches == 4
    assert (obs.metrics.snapshot()["live.gpu.kernel_launches"]
            == tree.device.kernel_launches)


@pytest.mark.parametrize("plan", [None, FaultPlan(seed=5, kernel_fail=0.3)],
                         ids=["fault-free", "kernel_fail"])
def test_resilient_lookups_serve_like_the_engine(m1, plan):
    keys, values = generate_dataset(2048, seed=21)
    rng = np.random.default_rng(8)
    # duplicate-heavy batches: sorting and dedup move the counters
    batches = [rng.choice(keys[:600], 300) for _ in range(12)]
    # no degradation: every batch keeps trying the GPU
    config = ResilienceConfig(breaker_threshold=1000, degrade_margin=1e12)

    def tree():
        return HBPlusTree(keys, values, machine=m1,
                          injector=FaultInjector(plan) if plan else None)

    resilient = ResilientHBPlusTree(tree(), config=config)
    engine = BatchingEngine(tree())
    for t in (resilient.tree, engine.tree):
        t.device.reset_counters()
    for q in batches:
        got = resilient.engine.lookup_batch(q)
        # the engine with the wrapper's relaunch budget
        for attempt in range(config.max_kernel_retries):
            try:
                np.testing.assert_array_equal(got, engine.lookup_batch(q))
                break
            except KernelLaunchFault:
                pass
    assert device_counters(resilient.tree) == device_counters(engine.tree)
    assert (resilient.tree.injector is None) == (plan is None)
    if plan is not None:
        schedule = resilient.tree.injector.schedule()
        assert schedule == engine.tree.injector.schedule()
        assert len(schedule) == resilient.stats.kernel_retries > 0
