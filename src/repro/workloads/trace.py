"""Synthetic workload traces: record, synthesize, replay.

The paper evaluates with uniform and analytically skewed query streams;
production index workloads additionally show *temporal locality* — a
hot working set that drifts over time.  Since real traces are not
available, :func:`synthesize_trace` generates the closest synthetic
equivalent: operations drawn from a sliding hot window over the key
space, with a configurable read/insert/delete/range mix.

Traces serialize to ``.npz`` (so experiments are replayable
byte-for-byte) and replay against any dynamic tree via
:func:`replay_trace`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.keys import key_spec
from repro.obs.stats import Stats


class OpKind(enum.IntEnum):
    LOOKUP = 0
    UPSERT = 1
    DELETE = 2
    RANGE = 3


@dataclass
class WorkloadTrace:
    """A replayable operation sequence."""

    ops: np.ndarray      # OpKind codes, int8
    keys: np.ndarray     # primary key per op
    values: np.ndarray   # value for upserts / high bound for ranges
    key_bits: int = 64

    def __post_init__(self):
        if not (len(self.ops) == len(self.keys) == len(self.values)):
            raise ValueError("trace columns must align")

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def read_ratio(self) -> float:
        if len(self.ops) == 0:
            return 0.0
        reads = np.isin(self.ops, [OpKind.LOOKUP, OpKind.RANGE])
        return float(np.mean(reads))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        np.savez_compressed(
            path, ops=self.ops, keys=self.keys, values=self.values,
            key_bits=np.asarray([self.key_bits]),
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        with np.load(Path(path)) as archive:
            return cls(
                ops=archive["ops"],
                keys=archive["keys"],
                values=archive["values"],
                key_bits=int(archive["key_bits"][0]),
            )


def synthesize_trace(
    base_keys: np.ndarray,
    n_ops: int,
    read_ratio: float = 0.9,
    delete_share: float = 0.1,
    range_share: float = 0.05,
    working_set: float = 0.05,
    drift_every: int = 1024,
    range_span: int = 16,
    key_bits: int = 64,
    seed: int = 29,
) -> WorkloadTrace:
    """A trace with a drifting hot working set.

    ``working_set`` is the fraction of the (sorted) key space that is
    hot at any moment; every ``drift_every`` operations the window
    slides, modeling daily/temporal shifts in production access
    patterns.  Writes split into upserts (fresh keys near the hot
    window) and deletes (existing hot keys) by ``delete_share``.
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError("read_ratio must be in [0, 1]")
    if not 0.0 < working_set <= 1.0:
        raise ValueError("working_set must be in (0, 1]")
    spec = key_spec(key_bits)
    rng = np.random.default_rng(seed)
    sorted_keys = np.sort(np.asarray(base_keys, dtype=spec.dtype))
    n = len(sorted_keys)
    window = max(1, int(n * working_set))

    ops = np.empty(n_ops, dtype=np.int8)
    keys = np.empty(n_ops, dtype=spec.dtype)
    values = np.empty(n_ops, dtype=spec.dtype)
    window_start = 0
    for i in range(n_ops):
        if i % max(1, drift_every) == 0 and i:
            window_start = (window_start + window // 2) % max(1, n - window)
        hot_index = window_start + int(rng.integers(0, window))
        hot_index = min(hot_index, n - 1)
        hot_key = int(sorted_keys[hot_index])
        if rng.random() < read_ratio:
            if rng.random() < range_share / max(read_ratio, 1e-9):
                hi_index = min(hot_index + range_span - 1, n - 1)
                ops[i] = OpKind.RANGE
                keys[i] = hot_key
                values[i] = sorted_keys[hi_index]
            else:
                ops[i] = OpKind.LOOKUP
                keys[i] = hot_key
                values[i] = 0
        else:
            if rng.random() < delete_share:
                ops[i] = OpKind.DELETE
                keys[i] = hot_key
                values[i] = 0
            else:
                ops[i] = OpKind.UPSERT
                # fresh key adjacent to the hot region (clustered writes)
                keys[i] = min(
                    hot_key + int(rng.integers(1, 1 << 16)),
                    spec.max_value - 1,
                )
                values[i] = int(rng.integers(0, 1 << 32))
    return WorkloadTrace(ops=ops, keys=keys, values=values,
                         key_bits=key_bits)


@dataclass(frozen=True)
class DriftPhase:
    """One phase of a phased drifting lookup stream."""

    name: str
    #: operation offset of the phase within the trace
    start: int
    length: int
    #: hot fraction of the sorted key space this phase draws from
    working_set: float

    @property
    def slice(self) -> slice:
        return slice(self.start, self.start + self.length)


def synthesize_drift_lookups(
    base_keys: np.ndarray,
    phase_working_sets=(1.0, 0.02, 0.25),
    queries_per_phase: int = 32768,
    key_bits: int = 64,
    seed: int = 29,
):
    """Lookup-only trace in named phases with *known* boundaries.

    :func:`synthesize_trace` drifts continuously, which is right for
    end-to-end replay but wrong for evaluating adaptive load balancing:
    there the question is "did the controller converge to each phase's
    offline optimum?", which needs phases that hold still long enough
    to *have* an offline optimum.  Each phase draws
    ``queries_per_phase`` lookups from its own hot window (fraction
    ``working_set`` of the sorted key space, placed at a different
    region per phase), so a per-phase ``discover()`` on the phase's
    own queries is well-defined.

    Returns ``(trace, phases)`` — the trace is pure lookups, and each
    :class:`DriftPhase` carries its slice of the operation stream.
    """
    spec = key_spec(key_bits)
    rng = np.random.default_rng(seed)
    sorted_keys = np.sort(np.asarray(base_keys, dtype=spec.dtype))
    n = len(sorted_keys)
    if n == 0:
        raise ValueError("base_keys must be non-empty")
    if queries_per_phase < 1:
        raise ValueError("queries_per_phase must be >= 1")
    n_phases = len(phase_working_sets)
    parts = []
    phases = []
    for i, working_set in enumerate(phase_working_sets):
        if not 0.0 < working_set <= 1.0:
            raise ValueError("working_set must be in (0, 1]")
        window = max(1, int(n * working_set))
        span = max(1, n - window)
        window_start = (
            (i * span) // (n_phases - 1) if n_phases > 1 else 0
        )
        idx = window_start + rng.integers(0, window, size=queries_per_phase)
        parts.append(sorted_keys[np.minimum(idx, n - 1)])
        phases.append(DriftPhase(
            name=f"phase{i}", start=i * queries_per_phase,
            length=queries_per_phase, working_set=float(working_set),
        ))
    keys = np.concatenate(parts)
    trace = WorkloadTrace(
        ops=np.full(len(keys), OpKind.LOOKUP, dtype=np.int8),
        keys=keys,
        values=np.zeros(len(keys), dtype=spec.dtype),
        key_bits=key_bits,
    )
    return trace, phases


@dataclass
class ReplayStats(Stats):
    """Functional outcome of replaying one trace."""

    lookups: int = 0
    hits: int = 0
    upserts: int = 0
    deletes: int = 0
    delete_misses: int = 0
    ranges: int = 0
    range_tuples: int = 0

    @property
    def operations(self) -> int:
        return self.lookups + self.upserts + self.deletes + self.ranges

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def replay_trace(trace: WorkloadTrace, tree) -> ReplayStats:
    """Apply every trace operation to a dynamic tree, in order.

    ``tree`` needs ``lookup``/``insert``/``delete``/``range_query``
    (the regular B+-tree interface); hybrid trees replay against their
    CPU structure and re-mirror at the end.
    """
    target = getattr(tree, "cpu_tree", tree)
    stats = ReplayStats()
    for op, key, value in zip(trace.ops.tolist(), trace.keys.tolist(),
                              trace.values.tolist()):
        if op == OpKind.LOOKUP:
            stats.lookups += 1
            if target.lookup(int(key), instrument=False) is not None:
                stats.hits += 1
        elif op == OpKind.UPSERT:
            stats.upserts += 1
            target.insert(int(key), int(value))
        elif op == OpKind.DELETE:
            stats.deletes += 1
            if not target.delete(int(key)):
                stats.delete_misses += 1
        elif op == OpKind.RANGE:
            stats.ranges += 1
            stats.range_tuples += len(
                target.range_query(int(key), int(value))
            )
        else:  # pragma: no cover - trace corruption
            raise ValueError(f"unknown op code {op}")
    if hasattr(tree, "mirror_i_segment"):
        tree.mirror_i_segment()
    return stats
