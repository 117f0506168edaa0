"""Self-validation utilities for every index structure.

``validate_index(tree)`` runs the deepest consistency checks available
for the structure and raises ``ValidationError`` with a description on
the first violation.  For hybrid trees this includes cross-checking the
GPU mirror against the CPU structure: a sample of stored keys descends
through the GPU stage (``gpu_descend``) and through the CPU tree, and
both must reach the same leaf line.

Deployments call this after batch updates or reloads; the test suite
uses it as an oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree


class ValidationError(AssertionError):
    """An index structure failed a consistency check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _validate_sorted_unique(keys: np.ndarray, what: str) -> None:
    if len(keys) > 1:
        _require(bool(np.all(keys[1:] > keys[:-1])),
                 f"{what}: keys not strictly increasing")


def validate_implicit(tree: ImplicitCpuBPlusTree) -> None:
    """Breadth-first layout invariants of the implicit B+-tree."""
    sentinel = tree.spec.max_value
    flat = tree.leaf_keys.reshape(-1)
    real = flat[flat != sentinel]
    _validate_sorted_unique(real, "implicit leaves")
    _require(len(real) == tree.num_tuples,
             "implicit: stored tuple count mismatch")
    # padding must be trailing within the flattened leaf array
    first_pad = np.argmax(flat == sentinel) if np.any(flat == sentinel) \
        else len(flat)
    _require(bool(np.all(flat[first_pad:] == sentinel)),
             "implicit: sentinel padding is not trailing")
    # every inner node's keys are non-decreasing
    for level, arr in enumerate(tree.inner_levels):
        diffs_ok = np.all(arr[:, 1:] >= arr[:, :-1])
        _require(bool(diffs_ok), f"implicit level {level}: keys unsorted")
    # routing: every stored key must be found
    sample = real[:: max(1, len(real) // 512)]
    out = tree.lookup_batch(sample)
    _require(bool(np.all(out != sentinel)),
             "implicit: a stored key fails lookup")


def validate_regular(tree: RegularCpuBPlusTree) -> None:
    """Full structural invariants of the regular B+-tree."""
    try:
        tree.check_invariants()
    except AssertionError as exc:
        raise ValidationError(f"regular tree: {exc}") from exc


def validate_css(tree: CssTree) -> None:
    _validate_sorted_unique(tree.sorted_keys, "css data")
    for level, arr in enumerate(tree.directory):
        _require(bool(np.all(arr[:, 1:] >= arr[:, :-1])),
                 f"css directory level {level}: keys unsorted")
    sample = tree.sorted_keys[:: max(1, len(tree.sorted_keys) // 512)]
    for key in sample.tolist():
        _require(tree.lookup(int(key), instrument=False) is not None,
                 f"css: stored key {key} fails lookup")


def validate_fast(tree: FastTree) -> None:
    _validate_sorted_unique(tree.sorted_keys, "fast data")
    sample = tree.sorted_keys[:: max(1, len(tree.sorted_keys) // 512)]
    for key in sample.tolist():
        _require(tree.lookup(int(key), instrument=False) is not None,
                 f"fast: stored key {key} fails lookup")


def validate_hybrid_implicit(tree: ImplicitHBPlusTree,
                             mirror_sample: int = 64) -> None:
    """CPU structure + GPU mirror consistency."""
    validate_implicit(tree.cpu_tree)
    # the flat device image must equal the CPU inner levels
    _require(tree.mirror_matches(), "hybrid implicit: GPU mirror is stale")
    # the GPU stage over that image must agree with the CPU descent
    stored = tree.cpu_tree.leaf_keys.reshape(-1)
    stored = stored[stored != tree.spec.max_value]
    if len(stored):
        rng = np.random.default_rng(13)
        sample = rng.choice(stored, size=min(mirror_sample, len(stored)))
        codes, _txns = tree.gpu_descend(sample)
        cpu = np.asarray(
            [tree.cpu_tree._descend(int(k), instrument=False)
             for k in sample],
            dtype=np.int64,
        )
        _require(bool(np.array_equal(codes, cpu)),
                 "hybrid implicit: GPU descent disagrees with CPU descent")


def validate_hybrid_regular(tree: HBPlusTree,
                            mirror_sample: int = 64) -> None:
    validate_regular(tree.cpu_tree)
    # the reused packed image is only as good as the pools' write
    # stamps: every inner-node write must have bumped them
    _require(bool(np.array_equal(tree.current_i_segment_image(),
                                 tree.pack_i_segment())),
             "hybrid regular: reused I-segment image is stale")
    # a mirror not flagged stale must hold that image
    if not tree.mirror_stale:
        _require(tree.mirror_matches(),
                 "hybrid regular: GPU mirror differs from the CPU tree")
    stored = np.asarray(tree.cpu_tree.stored_keys(), dtype=tree.spec.dtype)
    if len(stored):
        rng = np.random.default_rng(13)
        sample = rng.choice(stored, size=min(mirror_sample, len(stored)))
        codes, _txns = tree.gpu_descend(sample)
        node, line = tree.cpu_tree.descend_batch(sample)
        _require(bool(np.array_equal(codes,
                                     node * tree.cpu_tree.fanout + line)),
                 "hybrid regular: GPU descent disagrees with CPU descent")
        out = tree.cpu_finish_bucket(sample, codes)
        _require(bool(np.all(out != tree.spec.max_value)),
                 "hybrid regular: a stored key fails the hybrid lookup")


_DISPATCH = [
    (ImplicitHBPlusTree, validate_hybrid_implicit),
    (HBPlusTree, validate_hybrid_regular),
    (ImplicitCpuBPlusTree, validate_implicit),
    (RegularCpuBPlusTree, validate_regular),
    (CssTree, validate_css),
    (FastTree, validate_fast),
]


def validate_index(tree) -> None:
    """Dispatch to the structure's deepest validator."""
    for cls, fn in _DISPATCH:
        if isinstance(tree, cls):
            fn(tree)
            return
    raise TypeError(f"no validator for {type(tree).__name__}")
