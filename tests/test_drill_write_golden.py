"""Golden write path of the drill's synchronized updates (section 5.6).

``SyncUpdater`` applies 40 drill-sized batches to one packed (fill 1.0)
M1 tree over 2^18 keys: each batch upserts 12 fresh and 12 stored keys
and deletes 8 other stored keys, with fixed seeds.  At fill 1.0 a fresh
key splits its leaf, so the batches mix in-leaf writes, leaf splits,
upper splits and mirror rebuilds.  The test pins, exactly and per
batch, every :class:`~repro.core.update.UpdateStats` field, the PCIe
link's bytes and transfers, and whether the mirror sync rebuilt
(``MirrorSyncStats.rebuilt``).  A change to how writes are applied
must leave all of them bit-identical.

The pinned values live in ``golden/drill_write_path.json``; to
re-record them (only for a change that is meant to move them) run::

    PYTHONPATH=src python tests/test_drill_write_golden.py > tests/golden/drill_write_path.json
"""

import dataclasses
import json
import pathlib

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.update import SyncUpdater
from repro.platform.configs import machine_m1
from repro.workloads.generators import generate_dataset

GOLDEN = pathlib.Path(__file__).parent / "golden" / "drill_write_path.json"

N_KEYS = 1 << 18
BATCHES = 40
FRESH, EXISTING, DELETES = 12, 12, 8
SEED = 29


def _batch(stored: np.ndarray, b: int):
    """Batch ``b``: distinct fresh upserts, stored upserts and deletes."""
    rng = np.random.default_rng([SEED, b])
    pick = stored[rng.choice(len(stored), EXISTING + DELETES, replace=False)]
    fresh = rng.integers(0, (1 << 64) - 1, 4 * FRESH, dtype=np.uint64)
    fresh = np.unique(fresh[~np.isin(fresh, stored)])[:FRESH]
    ups = np.concatenate([pick[:EXISTING], fresh])
    order = rng.permutation(len(ups))
    vals = rng.integers(0, 1 << 62, len(ups), dtype=np.uint64)
    return ups[order], vals, pick[EXISTING:]


def record():
    """Apply the batches; return the per-batch modeled record."""
    keys, values = generate_dataset(N_KEYS, seed=SEED)
    tree = HBPlusTree(keys, values, machine=machine_m1(), fill=1.0)
    cpu = tree.cpu_tree
    rebuilt = []
    sync_nodes = tree.sync_nodes

    def traced_sync_nodes(mark):
        stats = sync_nodes(mark)
        rebuilt.append(stats.rebuilt)
        return stats

    tree.sync_nodes = traced_sync_nodes
    updater = SyncUpdater(tree)
    link = tree.link.stats
    batches = []
    for b in range(BATCHES):
        ups, vals, dels = _batch(cpu.stored_keys(), b)
        nodes = cpu.descend_batch(np.concatenate([ups, dels]))[0]
        bytes0, transfers0 = link.bytes_to_device, link.transfers
        del rebuilt[:]
        stats = updater.apply(ups, vals, dels)
        assert np.array_equal(tree.lookup_batch(ups), vals)
        batches.append({
            "batch": b,
            "stats": dataclasses.asdict(stats),
            "bytes_to_device": link.bytes_to_device - bytes0,
            "transfers": link.transfers - transfers0,
            "rebuilt": list(rebuilt),
            "shared_leaf": bool(len(np.unique(nodes)) < len(nodes)),
        })
    cpu.check_invariants()
    return {"batches": batches, "tuples": len(cpu)}


def test_write_path_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(record()))
    assert got["tuples"] == golden["tuples"]
    assert len(got["batches"]) == len(golden["batches"])
    for mine, pinned in zip(got["batches"], golden["batches"]):
        assert mine == pinned, f"batch {pinned['batch']} moved"


def test_golden_is_not_vacuous():
    golden = json.loads(GOLDEN.read_text())
    batches = golden["batches"]
    assert len(batches) == BATCHES
    # the stream splits leaves (rebuilds and ranged pushes both occur)
    # and lands two or more ops in one leaf in some batches
    assert any(r == [True] for r in (b["rebuilt"] for b in batches))
    assert any(r == [False] for r in (b["rebuilt"] for b in batches))
    assert any(b["shared_leaf"] for b in batches)


if __name__ == "__main__":
    rec = record()
    print('{"tuples": %d,\n "batches": [\n  %s\n]}' % (
        rec["tuples"],
        ",\n  ".join(json.dumps(b) for b in rec["batches"]),
    ))
