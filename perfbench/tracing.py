"""Outside-in span tracing of the service stack, from the benchmark's side.

The program has no spans of its own at these boundaries yet, so this
module installs wrappers on the attributes each caller actually looks
up -- a class attribute for a method, a module attribute for a
function imported by name -- and removes them again afterwards.  Each
wrapper records one span (name, layer, start, end, parent, batch id and
batch kind) plus the counts available at that boundary.  Spans are kept
in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on the one serving thread, so the
self times of every span under a service call sum to that call's
duration exactly.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: span record fields (a list per span keeps a traced run's memory small)
NAME, LAYER, START, END, PARENT, BATCH, KIND, CHILD_NS, COUNTS = range(9)

#: layer order of the per-layer table and of the trace's thread tracks
LAYERS = ("service", "router", "quota", "admission", "shard", "engine",
          "plan", "descent", "leaf", "scan", "update", "cputree", "mirror",
          "pcie", "resilience", "adaptive")

#: layers whose spans' descendants are charged to them (see LayerTotals)
FOLDED = ("adaptive",)


def _n(x) -> int:
    return len(x) if x is not None else 0


def _lookup_keys(a, kw, res):
    return {"keys": _n(a[1])}


def _scan_count(a, kw, res):
    return {"scans": _n(a[1])}


def _update_ops(a, kw, res):
    deletes = a[3] if len(a) > 3 else kw.get("deletes", ())
    return {"ops": _n(a[1]) + _n(deletes)}


def _groups(a, kw, res):
    return {"sub_batches": sum(1 for g in res if len(g))}


def _plan(a, kw, res):
    return {"queries": res.n_queries, "unique": res.n_unique}


def _descent(a, kw, res):
    return {"buckets": 1, "keys": _n(a[1]),
            "txns": int(getattr(res, "transactions", 0))}


def _buckets(a, kw, res):
    return {"buckets": 1}


def _mem_pre(a, kw):
    c = a[0].mem.counters
    return c.line_accesses, c.cache_hits


def _scan_rows(a, kw, res, pre):
    """Scans, tuples, and the LLC lines the walk touched in memsim."""
    c = a[0].mem.counters
    return {"scans": len(res), "tuples": sum(len(r) for r in res),
            "lines": c.line_accesses - pre[0], "hits": c.cache_hits - pre[1]}


def _range_rows(a, kw, res, pre):
    return _scan_rows(a, kw, [res], pre)


def _one(key: str):
    return lambda a, kw, res: {key: 1}


def _transfer(a, kw, res):
    src = a[3] if len(a) > 3 else kw.get("host_array")
    return {"transfers": 1, "bytes": int(getattr(src, "nbytes", 0)),
            "modeled_ns": float(res)}


#: (module, owner class or None for a module attribute, attribute,
#: layer, counts(args, kwargs, result), optional pre(args, kwargs))
POINTS: Tuple[tuple, ...] = (
    ("repro.service.service", "IndexService", "lookup_batch", "service",
     _lookup_keys, None),
    ("repro.service.service", "IndexService", "run_scans", "service",
     _scan_count, None),
    ("repro.service.service", "IndexService", "apply_updates", "service",
     _update_ops, None),
    ("repro.service.service", None, "group_by_shard", "router", _groups,
     None),
    ("repro.service.router", "RangeRouter", "shard_of", "router", None,
     None),
    ("repro.service.quota", "TenantQuotas", "charge", "quota", None, None),
    ("repro.service.admission", "ShardQueue", "acquire", "admission",
     _one("acquires"), None),
    ("repro.service.admission", "ShardQueue", "release", "admission", None,
     None),
    ("repro.service.shard", "Shard", "lookup_batch", "shard",
     _one("sub_batches"), None),
    ("repro.service.shard", "Shard", "run_scans", "shard",
     _one("sub_batches"), None),
    ("repro.service.shard", "Shard", "apply_updates", "shard",
     _one("sub_batches"), None),
    ("repro.core.batching", "BatchingEngine", "lookup_batch", "engine",
     None, None),
    ("repro.core.batching", "BatchingEngine", "run_scans", "engine", None,
     None),
    ("repro.core.batching", "BatchingEngine", "execute_bucket", "engine",
     _buckets, None),
    ("repro.core.batching", "BatchingEngine", "scan_bucket", "engine",
     _buckets, None),
    ("repro.core.batching", None, "plan_bucket", "plan", _plan, None),
    ("repro.core.resilience", None, "plan_bucket", "plan", _plan, None),
    ("repro.core.hbtree", "HBPlusTree", "gpu_search_bucket", "descent",
     _descent, None),
    ("repro.core.hbtree_implicit", "ImplicitHBPlusTree",
     "gpu_search_bucket", "descent", _descent, None),
    ("repro.core.hbtree_implicit", "ImplicitHBPlusTree",
     "gpu_search_bucket_from", "descent", _descent, None),
    ("repro.core.hbtree_implicit", "ImplicitHBPlusTree", "cpu_descend_top",
     "descent", None, None),
    ("repro.core.hbtree", "HBPlusTree", "cpu_finish_bucket", "leaf",
     _lookup_keys, None),
    ("repro.core.hbtree_implicit", "ImplicitHBPlusTree",
     "cpu_finish_bucket", "leaf", _lookup_keys, None),
    ("repro.core.hbtree", "HBPlusTree", "cpu_scan_bucket", "scan",
     _scan_rows, _mem_pre),
    ("repro.core.hbtree_implicit", "ImplicitHBPlusTree", "cpu_scan_bucket",
     "scan", _scan_rows, _mem_pre),
    ("repro.cpu.btree_regular", "RegularCpuBPlusTree", "range_query",
     "scan", _range_rows, _mem_pre),
    ("repro.core.update", "SyncUpdater", "apply", "update", _update_ops,
     None),
    ("repro.core.update", "AsyncBatchUpdater", "apply", "update",
     _update_ops, None),
    ("repro.core.hbtree_implicit", "ImplicitHBPlusTree", "merge_rebuild",
     "update", _update_ops, None),
    ("repro.cpu.btree_regular", "RegularCpuBPlusTree", "insert", "cputree",
     _one("writes"), None),
    ("repro.cpu.btree_regular", "RegularCpuBPlusTree", "delete", "cputree",
     _one("writes"), None),
    ("repro.cpu.btree_regular", "RegularCpuBPlusTree", "insert_batch",
     "cputree", lambda a, kw, res: {"writes": _n(a[1])}, None),
    ("repro.cpu.btree_regular", "RegularCpuBPlusTree", "lookup", "cputree",
     _one("lookups"), None),
    ("repro.core.hbtree", "HBPlusTree", "mirror_i_segment", "mirror",
     _one("rebuilds"), None),
    ("repro.core.hbtree", "HBPlusTree", "sync_nodes", "mirror",
     _one("syncs"), None),
    ("repro.gpusim.transfer", "PcieLink", "to_device", "pcie", _transfer,
     None),
    ("repro.gpusim.transfer", "PcieLink", "update_device", "pcie",
     _transfer, None),
    ("repro.core.resilience", "ResilientHBPlusTree", "lookup_batch",
     "resilience", _one("calls"), None),
    ("repro.core.resilience", "ResilientHBPlusTree", "run_scans",
     "resilience", _one("calls"), None),
    ("repro.core.resilience", "ResilientHBPlusTree", "apply_updates",
     "resilience", _one("calls"), None),
    ("repro.core.adaptive", "AdaptiveController", "_close_window",
     "adaptive", _one("windows"), None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self):
        self.spans: List[list] = []
        self.batch = -1
        self.kind = ""
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        #: points whose owner or attribute the program does not have
        self.missing: List[str] = []

    # -- installation ---------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self) -> None:
        self.missing = []
        for module, owner, attr, layer, counts, pre in POINTS:
            try:
                target = importlib.import_module(module)
            except ImportError:
                target = None
            if owner is not None and target is not None:
                target = getattr(target, owner, None)
            orig = getattr(target, attr, None) if target is not None else None
            label = f"{owner}.{attr}" if owner else f"{module}.{attr}"
            if orig is None:
                self.missing.append(label)
                continue
            setattr(target, attr, self._wrap(orig, label, layer, counts, pre))
            self._installed.append((target, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._installed):
            setattr(target, attr, orig)
        self._installed = []

    def _wrap(self, orig: Callable, name: str, layer: str,
              counts: Optional[Callable], pre: Optional[Callable]):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, layer, clock(), 0, parent, self.batch, self.kind,
                    0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += span[END] - span[START]
            if counts is not None:
                span[COUNTS] = (counts(args, kwargs, result, state)
                                if pre is not None
                                else counts(args, kwargs, result))
            return result

        return traced


def duration(span: list) -> int:
    return span[END] - span[START]


def self_ns(span: list) -> int:
    return span[END] - span[START] - span[CHILD_NS]


def effective_layers(spans: List[list],
                     fold: Tuple[str, ...] = FOLDED) -> List[str]:
    """Each span's layer, with everything under a ``fold`` layer's span
    charged to that layer."""
    out: List[str] = []
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and out[parent] in fold:
            out.append(out[parent])
        else:
            out.append(span[LAYER])
    return out


class LayerTotals:
    """Per-layer sums over a set of spans: calls, inclusive time of the
    layer's outermost spans, self time, and summed counts.

    Work a layer does on its own behalf rather than for the batch --
    the adaptive controller's reprofiling descents -- is folded into
    that layer, so the serving layers' numbers describe serving only.
    """

    def __init__(self, spans: List[list], batches: Optional[range] = None,
                 kind: Optional[str] = None):
        self.calls: Dict[str, int] = {}
        self.outer_calls: Dict[str, int] = {}
        self.inclusive_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, Dict[str, float]] = {}
        #: per span name: [calls, summed duration]
        self.by_name: Dict[str, List[int]] = {}
        layers = effective_layers(spans)
        for i, span in enumerate(spans):
            if batches is not None and span[BATCH] not in batches:
                continue
            if kind is not None and span[KIND] != kind:
                continue
            layer = layers[i]
            self.self_ns[layer] = self.self_ns.get(layer, 0) + self_ns(span)
            if layer != span[LAYER]:
                continue  # folded: its time counts, its calls and counts not
            self.calls[layer] = self.calls.get(layer, 0) + 1
            per_name = self.by_name.setdefault(span[NAME], [0, 0])
            per_name[0] += 1
            per_name[1] += duration(span)
            parent = span[PARENT]
            if parent < 0 or layers[parent] != layer:
                self.outer_calls[layer] = self.outer_calls.get(layer, 0) + 1
                self.inclusive_ns[layer] = (self.inclusive_ns.get(layer, 0)
                                            + duration(span))
            if span[COUNTS]:
                acc = self.counts.setdefault(layer, {})
                for key, value in span[COUNTS].items():
                    acc[key] = acc.get(key, 0) + value

    def count(self, layer: str, key: str) -> float:
        return self.counts.get(layer, {}).get(key, 0)

    def self_us(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e3

    def inclusive_us(self, layer: str) -> float:
        return self.inclusive_ns.get(layer, 0) / 1e3

    def name_us(self, *names: str) -> Tuple[int, float]:
        """(calls, summed duration in us) of the spans with these names."""
        calls = sum(self.by_name.get(n, (0, 0))[0] for n in names)
        ns = sum(self.by_name.get(n, (0, 0))[1] for n in names)
        return calls, ns / 1e3


def batch_self_sums(spans: List[list]) -> Dict[int, Tuple[int, int]]:
    """Per root span: (its duration, the summed self time of every span
    under it, itself included)."""
    root_of: List[int] = []
    out: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        root = i if parent < 0 else root_of[parent]
        root_of.append(root)
        if parent < 0:
            out[i] = [duration(span), 0]
        out[root][1] += self_ns(span)
    return {k: (v[0], v[1]) for k, v in out.items()}


def chrome_trace(spans: List[list], max_batch: Optional[int] = None,
                 meta: Optional[dict] = None) -> dict:
    """Chrome trace-event JSON: one thread track per layer, complete
    ("X") events with the batch id, parent index and counts as args."""
    kept = [s for s in spans if max_batch is None or s[BATCH] < max_batch]
    t0 = min((s[START] for s in kept), default=0)
    layers = [l for l in LAYERS if any(s[LAYER] == l for s in kept)]
    tid = {l: i + 1 for i, l in enumerate(layers)}
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": "perfbench"}}]
    for layer in layers:
        events.append({"ph": "M", "pid": 1, "tid": tid[layer],
                       "name": "thread_name", "args": {"name": layer}})
        events.append({"ph": "M", "pid": 1, "tid": tid[layer],
                       "name": "thread_sort_index",
                       "args": {"sort_index": tid[layer]}})
    for i, s in enumerate(spans):
        if max_batch is not None and s[BATCH] >= max_batch:
            continue
        args = {"batch": s[BATCH], "kind": s[KIND], "span": i,
                "parent": s[PARENT], "self_us": self_ns(s) / 1e3}
        if s[COUNTS]:
            args.update(s[COUNTS])
        events.append({"ph": "X", "pid": 1, "tid": tid[s[LAYER]],
                       "name": s[NAME], "cat": s[LAYER],
                       "ts": (s[START] - t0) / 1e3,
                       "dur": duration(s) / 1e3, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta or {}}
