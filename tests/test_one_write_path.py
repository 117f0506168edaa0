"""One write path per shard: the engine writes, the policy wraps it.

Twin shards of every serving configuration take the same reads and the
same update batches.  One twin writes through
:meth:`BatchingEngine.apply_updates` (the tree's ``write_batch``, under
the resilience policy's ``serve_updates`` when one is installed).  The
other writes through the three routes a shard used to pick between,
reproduced here as the oracle: a bare :class:`SyncUpdater` on a plain
regular shard, ``merge_rebuild`` on an implicit shard, and, on a
drilled or mode-adaptive regular shard, the policy's synchronized write
with its faulted-sync handling, all under the tree's serve lock.  Both
must leave the same contents, the same returned stats and the same
modeled counters, fault schedule and resilience stats.  A writer that
arrives while ``quiesce()`` holds the lock parks until it is released.
"""

import threading

import numpy as np
import pytest

from repro.core.resilience import GpuUnavailable
from repro.core.update import SyncUpdater, UpdateStats
from repro.faults import FaultError, FaultPlan
from repro.platform.configs import machine_m1
from repro.service.shard import Shard
from repro.workloads.generators import generate_dataset

SHARDS = {
    "plain hb-regular": dict(kind="hb-regular"),
    "drilled hb-regular": dict(kind="hb-regular",
                               fault_plan=FaultPlan.uniform(0.3, seed=7)),
    "adaptive hb-regular": dict(kind="hb-regular", adaptive=True),
    "plain hb-implicit": dict(kind="hb-implicit"),
    "adaptive hb-implicit": dict(kind="hb-implicit", adaptive=True),
}

ROUNDS = 6


def oracle_write(shard, keys, values, deletes):
    """The shard write as three routes: tree kind, then policy."""
    with shard.tree.serve_lock:
        if shard.kind == "hb-implicit":
            return shard.tree.merge_rebuild(keys, values, deletes)
        if shard.resilient is None:
            return SyncUpdater(shard.tree).apply(keys, values, deletes)
        r = shard.resilient
        try:
            return SyncUpdater(r.tree).apply(keys, values, deletes)
        except FaultError:
            stats = UpdateStats()
            try:
                r._refresh_mirror()
            except GpuUnavailable:
                r.stats.gpu_batch_failures += 1
                if r.breaker.record_failure():
                    r.stats.degradations += 1
                    r._note_degrade("consecutive_failures")
            return stats


def parked_write(shard, keys, values, deletes):
    """``engine.apply_updates`` from a thread that arrives while
    ``quiesce()`` holds the serve lock; it must wait for the release."""
    done = threading.Event()
    out = {}

    def writer():
        out["stats"] = shard.engine.apply_updates(keys, values, deletes)
        done.set()

    with shard.quiesce():
        before = state(shard)["contents"]
        thread = threading.Thread(target=writer)
        thread.start()
        assert not done.wait(0.2), "a writer ran inside quiesce()"
        assert state(shard)["contents"] == before
    thread.join(30)
    assert done.is_set()
    return out["stats"]


def state(shard) -> dict:
    """Everything a write may move, as plain values."""
    tree = shard.tree
    keys, values = shard.contents()
    out = {
        "contents": (keys.tolist(), values.tolist()),
        "link": tree.link.stats.snapshot(),
        "kernels": tree.device.stats.snapshot(),
        "device_memory": tree.device.memory.counters.snapshot(),
        "memsim": tree.mem.counters.snapshot(),
        "engine": shard.engine.stats.snapshot(),
        "mirror_stale": getattr(tree, "mirror_stale", False),
    }
    if shard.resilient is not None:
        out["resilience"] = shard.resilient.stats.snapshot()
        out["degraded"] = shard.resilient.degraded
    if shard.injector is not None:
        out["schedule"] = shard.injector.schedule()
    if shard.controller is not None:
        out["controller"] = shard.controller.stats.snapshot()
    return out


def batch(stored: np.ndarray, round_: int):
    """Fresh and stored upserts plus deletes of stored keys."""
    rng = np.random.default_rng([11, round_])
    pick = rng.choice(stored, 36, replace=False)
    fresh = rng.integers(1, 2**40, size=40, dtype=np.uint64)
    ups = np.concatenate([fresh, pick[:20]])
    vals = rng.integers(0, 2**40, size=len(ups), dtype=np.uint64)
    return ups, vals, pick[20:]


@pytest.fixture(scope="module")
def data():
    return generate_dataset(1 << 12, seed=23)


@pytest.mark.parametrize("parked", [False, True], ids=["free", "parked"])
@pytest.mark.parametrize("name", sorted(SHARDS))
def test_engine_write_matches_the_three_routes(data, name, parked):
    keys, values = data
    kwargs = SHARDS[name]
    engine_twin = Shard(0, keys, values, machine=machine_m1(), **kwargs)
    oracle_twin = Shard(0, keys, values, machine=machine_m1(), **kwargs)
    assert state(engine_twin) == state(oracle_twin)
    rng = np.random.default_rng(5)
    faulted_writes = 0
    for round_ in range(ROUNDS):
        stored = engine_twin.contents()[0]
        q = np.concatenate([
            rng.choice(stored, 300),
            rng.integers(1, 2**40, size=40, dtype=np.uint64),
        ])
        np.testing.assert_array_equal(engine_twin.engine.lookup_batch(q),
                                      oracle_twin.engine.lookup_batch(q))
        ups, vals, dels = batch(stored, round_)
        if parked and round_ == 0:
            got = parked_write(engine_twin, ups, vals, dels)
        else:
            got = engine_twin.engine.apply_updates(ups, vals, dels)
        want = oracle_write(oracle_twin, ups, vals, dels)
        assert type(got) is type(want)
        assert got == want
        if isinstance(got, UpdateStats) and got.applied == 0:
            faulted_writes += 1
        assert state(engine_twin) == state(oracle_twin), round_
    # the shard's own entry is the same one call
    ups, vals, dels = batch(engine_twin.contents()[0], ROUNDS)
    engine_twin.apply_updates(ups, vals, dels)
    oracle_write(oracle_twin, ups, vals, dels)
    assert state(engine_twin) == state(oracle_twin)
    if engine_twin.injector is not None:
        assert faulted_writes > 0, "no write took the faulted-sync path"
        assert engine_twin.injector.stats.total_faults > 0
