"""The bulk rebuild path: sort-based, bottom-up.

Every restore and rebuild in :mod:`repro.lifecycle` goes through
:func:`bulk_load` — sort once, then build each level bottom-up in
bulk, the way the paper's batch-rebuild pipeline (and FliX-style GPU
index reconstruction) assumes.  The one sort is the tree build's own,
and it runs only when the keys are not already strictly increasing,
so presorted contents (every snapshot restore and shard split) are
not sorted at all.  The ``lifecycle`` gate (:mod:`repro.bench.gates`)
times it against a naive cold start that grows an empty tree one
``insert`` at a time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
