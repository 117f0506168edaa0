"""Golden decision sequence of the adaptive loop on one implicit shard.

A Zipf(1.3) lookup stream (64 keys per batch, one bucket per batch)
drives one adaptive ``hb-implicit`` shard over 2^16 keys through 40
windows.  The test pins, exactly, every committed (window, kernel, D, R)
and every evaluated window's measured ``cpu_level_ns``, ``leaf_ns`` and
``gpu_level_ns_by_kernel``.  Any change to how a window is profiled or
priced must leave all of them bit-identical.

The pinned values live in ``golden/adaptive_decisions.json``; to
re-record them (only for a change that is meant to move them) run::

    PYTHONPATH=src python tests/test_adaptive_golden.py > tests/golden/adaptive_decisions.json
"""

import json
import pathlib

import numpy as np

from repro.service.shard import Shard

GOLDEN = pathlib.Path(__file__).parent / "golden" / "adaptive_decisions.json"

N_KEYS = 1 << 16
BATCH_KEYS = 64
WINDOWS = 40
ZIPF_A = 1.3
SEED = 5


def _stream_keys():
    rng = np.random.default_rng([SEED, 0])
    keys = np.unique(rng.integers(0, 1 << 62, N_KEYS + 512, dtype=np.uint64))
    keys = np.sort(rng.choice(keys, N_KEYS, replace=False))
    values = keys ^ np.uint64(0x5A5A)
    rank_to_key = rng.permutation(N_KEYS)
    return keys, values, rank_to_key


def record():
    """Serve the stream; return the decision and profile sequence."""
    keys, values, rank_to_key = _stream_keys()
    shard = Shard(0, keys, values, kind="hb-implicit", adaptive=True)
    ctl = shard.controller
    balancer = ctl.balancer
    windows = []
    discover = balancer.discover

    def traced_discover(*args, **kwargs):
        windows.append({
            "window": ctl.stats.windows,
            "cpu_level_ns": list(balancer.cpu_level_ns),
            "leaf_ns": balancer.leaf_ns,
            "gpu_level_ns_by_kernel": {
                k: list(v)
                for k, v in sorted(balancer.gpu_level_ns_by_kernel.items())
            },
        })
        return discover(*args, **kwargs)

    balancer.discover = traced_discover
    commits = [[0, ctl.kernel, ctl.depth, ctl.ratio]]
    batch = 0
    while ctl.stats.windows < WINDOWS:
        rng = np.random.default_rng([SEED, 2, batch])
        ranks = (rng.zipf(ZIPF_A, BATCH_KEYS) - 1) % N_KEYS
        q = keys[rank_to_key[ranks]]
        out = shard.lookup_batch(q)
        assert np.array_equal(out, q ^ np.uint64(0x5A5A))
        state = [ctl.kernel, ctl.depth, ctl.ratio]
        if state != commits[-1][1:]:
            commits.append([ctl.stats.windows] + state)
        batch += 1
    return {"commits": commits, "windows": windows}


def test_decisions_and_profiles_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(record()))
    assert got["commits"] == golden["commits"]
    assert len(got["windows"]) == len(golden["windows"])
    for mine, pinned in zip(got["windows"], golden["windows"]):
        assert mine == pinned, f"window {pinned['window']} moved"


def test_golden_is_not_vacuous():
    golden = json.loads(GOLDEN.read_text())
    # the stream evaluates every window and moves the split at least
    # once, so the pinned sequence covers a real commit
    assert len(golden["windows"]) >= WINDOWS
    assert len(golden["commits"]) >= 2


if __name__ == "__main__":
    rec = record()
    print('{"commits": %s,\n "windows": [\n  %s\n]}' % (
        json.dumps(rec["commits"]),
        ",\n  ".join(json.dumps(w) for w in rec["windows"]),
    ))
