"""Bulk rebuild paths: sort-based bottom-up vs per-key inserts.

Every restore and rebuild in :mod:`repro.lifecycle` goes through
:func:`bulk_load` — sort once, then build each level bottom-up in
bulk, the way the paper's batch-rebuild pipeline (and FliX-style GPU
index reconstruction) assumes.  The one sort is the tree build's own,
and it runs only when the keys are not already strictly increasing,
so presorted contents (every snapshot restore and shard split) are
not sorted at all.  :func:`cold_build_per_key` is the
anti-pattern kept as a measured baseline: an empty tree grown one
``insert`` at a time, which is what a naive cold start would do and
what the ``lifecycle`` gate (:mod:`repro.bench.gates`) shows losing
by ~an order of magnitude.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.io import build_index
from repro.keys import key_spec
from repro.memsim.mainmem import MemorySystem
from repro.platform.configs import MachineConfig


def bulk_load(
    kind: str,
    keys,
    values,
    *,
    key_bits: int = 64,
    fanout: Optional[int] = None,
    mem: Optional[MemorySystem] = None,
    machine: Optional[MachineConfig] = None,
    fill: float = 1.0,
):
    """Sort-based bottom-up build of any supported tree kind.

    Accepts contents in any order, range-checked through
    :meth:`repro.keys.KeySpec.coerce`: every tree's build sorts by key
    only when the keys are not strictly increasing, so a rebuild from
    an unsorted delta log costs one ``argsort`` plus the linear
    bottom-up pass — never N inserts — and presorted contents skip the
    sort.
    """
    spec = key_spec(key_bits)
    keys = spec.coerce(keys)
    values = np.asarray(values, dtype=spec.dtype)
    if len(keys) != len(values):
        raise ValueError("keys and values must have equal length")
    return build_index(
        kind, keys, values, key_bits=key_bits, fanout=fanout,
        mem=mem, machine=machine, fill=fill,
    )


def cold_build_per_key(
    keys,
    values,
    machine: MachineConfig,
    key_bits: int = 64,
    mem: Optional[MemorySystem] = None,
    fill: float = 1.0,
) -> HBPlusTree:
    """The naive cold start: per-key inserts into an empty hybrid
    tree, then one full mirror upload.  Benchmark baseline only."""
    spec = key_spec(key_bits)
    keys = spec.coerce(keys)
    values = np.asarray(values, dtype=spec.dtype)
    tree = HBPlusTree((), (), machine=machine, key_bits=key_bits,
                      mem=mem, fill=fill)
    for k, v in zip(keys.tolist(), values.tolist()):
        tree.cpu_tree.insert(int(k), int(v))
    tree.mirror_i_segment()
    return tree
