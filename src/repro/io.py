"""Index persistence: save/load trees as ``.npz`` archives.

The archive stores the *logical contents* (sorted key/value pairs) plus
the structure kind and build parameters; loading bulk-builds the tree
— the approach the paper's own batch-rebuild pipeline implies for
implicit structures, and a clean round trip for all of them.  (The
regular tree's dynamic split history is not preserved: a reloaded tree
is a freshly bulk-loaded equivalent.)
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree
from repro.memsim.mainmem import MemorySystem
from repro.platform.configs import MachineConfig

_KINDS = {
    ImplicitCpuBPlusTree: "implicit-cpu",
    RegularCpuBPlusTree: "regular-cpu",
    CssTree: "css",
    FastTree: "fast",
    ImplicitHBPlusTree: "hb-implicit",
    HBPlusTree: "hb-regular",
}

#: archive format versions this module knows how to load
_SUPPORTED_VERSIONS = {"1"}


def save_index(tree, path: Union[str, Path]) -> Path:
    """Serialize a tree's contents + build parameters to ``path``.

    The write is atomic: the archive lands in a same-directory temp
    file, is fsynced, then renamed over the target — a crash mid-save
    can leave a stray temp file but never a torn archive at ``path``.
    Returns the written path (``.npz`` appended if missing).
    """
    for cls, kind in _KINDS.items():
        if type(tree) is cls:
            break
    else:
        raise TypeError(f"cannot persist a {type(tree).__name__}")
    keys, values = tree.stored_items()
    spec = tree.spec
    meta = {
        "kind": kind,
        "key_bits": spec.bits,
        "version": 1,
    }
    if kind == "implicit-cpu":
        meta["fanout"] = tree.fanout
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh, keys=keys, values=values,
                meta=np.asarray([f"{k}={v}" for k, v in meta.items()]),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def _parse_meta(raw) -> dict:
    meta = {}
    for entry in raw.tolist():
        k, v = str(entry).split("=", 1)
        meta[k] = v
    return meta


def build_index(
    kind: str,
    keys: np.ndarray,
    values: np.ndarray,
    *,
    key_bits: int = 64,
    fanout: Optional[int] = None,
    mem: Optional[MemorySystem] = None,
    machine: Optional[MachineConfig] = None,
    fill: float = 1.0,
):
    """Bulk-build a tree of ``kind`` (a ``_KINDS`` value) over sorted
    contents.

    This is the sort-based bottom-up rebuild path shared by
    :func:`load_index` and :mod:`repro.lifecycle` — every constructor
    here bulk-loads rather than inserting per key.
    """
    if kind == "implicit-cpu":
        kwargs = {} if fanout is None else {"fanout": fanout}
        return ImplicitCpuBPlusTree(keys, values, key_bits=key_bits,
                                    mem=mem, **kwargs)
    if kind == "regular-cpu":
        return RegularCpuBPlusTree(keys, values, key_bits=key_bits, mem=mem,
                                   fill=fill)
    if kind == "css":
        return CssTree(keys, values, key_bits=key_bits, mem=mem)
    if kind == "fast":
        return FastTree(keys, values, key_bits=key_bits, mem=mem)
    if kind == "hb-implicit":
        if machine is None:
            raise ValueError("building a hb-implicit index requires a machine")
        return ImplicitHBPlusTree(keys, values, machine=machine,
                                  key_bits=key_bits, mem=mem)
    if kind == "hb-regular":
        if machine is None:
            raise ValueError("building a hb-regular index requires a machine")
        return HBPlusTree(keys, values, machine=machine, key_bits=key_bits,
                          mem=mem, fill=fill)
    raise ValueError(f"unknown index kind {kind!r}")


def load_index(
    path: Union[str, Path],
    mem: Optional[MemorySystem] = None,
    machine: Optional[MachineConfig] = None,
    fill: float = 1.0,
):
    """Rebuild a persisted tree.

    Hybrid kinds (``hb-*``) need ``machine``; CPU kinds optionally take
    ``mem`` for instrumentation.  ``fill`` sets the big-leaf occupancy
    for the regular kinds (load at ~0.7 when updates will follow).
    Archives whose ``version`` meta is missing or unknown are rejected.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        keys = archive["keys"]
        values = archive["values"]
        meta = _parse_meta(archive["meta"])
    version = meta.get("version")
    if version is None:
        raise ValueError(f"archive {path} has no version meta")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"archive {path} has unsupported version {version!r} "
            f"(supported: {sorted(_SUPPORTED_VERSIONS)})"
        )
    kind = meta["kind"]
    try:
        return build_index(
            kind, keys, values,
            key_bits=int(meta["key_bits"]),
            fanout=int(meta["fanout"]) if "fanout" in meta else None,
            mem=mem, machine=machine, fill=fill,
        )
    except ValueError as exc:
        if "unknown index kind" in str(exc):
            raise ValueError(f"unknown index kind {kind!r} in {path}")
        raise
