"""One export path from the stats records into a registry.

Every layer counts its events in a stats record, a dataclass deriving
:class:`~repro.obs.stats.Stats`: ``BatchStats`` on the engines,
``ResilienceStats`` on the resilient tree, ``TransferStats`` on the
PCIe link, ``AccessCounters`` in the memory system, ``GpuKernelStats``
and ``MemoryCounters`` on the device, and so on.  :func:`publish`
flattens one record (or a dict of numbers and records) into gauges
under one prefix, and :func:`collect_all` publishes every source it is
given through it, so a benchmark (or an operator) reads one
``snapshot()`` of one :class:`~repro.obs.metrics.MetricsRegistry`
instead of a dozen objects.

Publishing is *pull*-style and side-effect-free on the sources: call it
whenever a consistent cut is wanted.  Values land as gauges (they are
snapshots of externally-owned accumulators, not registry-owned counts).
A publish replaces the gauges that earlier publishes left under its
prefix whose labels include its own labels, so a series does not
outlive its source (a merged-away shard, a breaker state that no longer
holds); series published under other label values stay.

Naming convention: these snapshot gauges own the canonical names
(``gpu.kernel_launches``, ``pcie.bytes_to_device``, ...).  Push-style
counters recorded live by instrumented components use a ``live.``
prefix (``live.gpu.kernel_launches``) so the two never collide in the
registry, which rejects same-name registrations of different kinds.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import Stats

#: what an :class:`~repro.core.mixed.OptimisticRunResult` counts beyond
#: a plain mixed run, exported (and reported by ``repro.bench.mixed``)
#: for each one the result has
MIXED_COUNTERS = ("retries", "retry_ns", "dirty_nodes", "sync_transfers",
                  "sync_bytes", "sync_faults", "gap_writes",
                  "shift_writes", "splits", "mirror_rebuilt")


def stats_dict(obj: Any) -> Dict[str, Any]:
    """A plain-dict view of any stats object.

    A dict is its own view; otherwise prefers the object's own
    ``snapshot()`` and falls back to dataclass fields.  Nested dicts and
    records are kept (``publish`` flattens them).
    """
    if isinstance(obj, dict):
        return obj
    snap = getattr(obj, "snapshot", None)
    if callable(snap):
        return snap()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot snapshot {type(obj).__name__}")


def _flatten(prefix: str, mapping: Dict[str, Any], out: Dict[str, float]) -> None:
    for name, value in mapping.items():
        key = f"{prefix}.{name}" if prefix else str(name)
        if isinstance(value, Stats):
            value = value.snapshot()
        if isinstance(value, dict):
            _flatten(key, value, out)
        elif isinstance(value, bool):
            out[key] = int(value)
        elif isinstance(value, (int, float)):
            out[key] = value
        # non-numeric payloads (strings, arrays) are not metric material


def publish(metrics: MetricsRegistry, prefix: str, obj: Any,
            **labels) -> None:
    """Flatten one stats object into gauges under ``prefix.*``,
    replacing the gauges under ``prefix.*`` whose labels include
    ``labels``."""
    flat: Dict[str, float] = {}
    _flatten(prefix, stats_dict(obj), flat)
    metrics.drop_gauges(prefix, labels)
    for name, value in flat.items():
        metrics.gauge(name, **labels).set(value)


def publish_engine(metrics: MetricsRegistry, engine,
                   engine_label: str, **labels) -> None:
    """A batch engine's stats under an ``engine=`` label."""
    publish(metrics, "engine", engine.stats, engine=engine_label, **labels)


def publish_service(metrics: MetricsRegistry, service,
                    **labels) -> None:
    """An :class:`repro.service.IndexService`: service-wide gauges and
    latency, per-shard (``shard=``) serving and admission gauges,
    per-tenant (``tenant=``) quota gauges."""
    stats = service.stats()
    publish(metrics, "service", {
        "shards": stats["router"]["n_shards"],
        "epoch": stats["router"]["epoch"],
        "splits": stats["splits"],
        "merges": stats["merges"],
        "snapshot_failures": stats["snapshot_failures"],
        "latency": stats["latency"],
    }, **labels)
    for row in stats["shards"]:
        publish(metrics, "service.shard",
                {k: v for k, v in row.items()
                 if k not in ("position", "sid")},
                **dict(labels, shard=str(row["position"])))
    for tenant, row in stats["tenants"].items():
        publish(metrics, "service.tenant",
                {k: row[k] for k in ("capacity", "available",
                                     "admitted_ops", "rejected_ops")},
                **dict(labels, tenant=tenant))


def collect_all(metrics: MetricsRegistry, tree=None, engine=None,
                engine_label: str = "batch", resilient=None,
                adaptive=None, lifecycle=None, mixed=None,
                service=None, **labels) -> Dict[str, Any]:
    """Publish whatever is given, return the registry snapshot.

    Prefixes: ``gpu``, ``pcie``, ``mem`` and (gapped trees) ``tree`` for
    a tree's device, link, host memory and leaves; ``engine`` under
    ``engine=engine_label``; ``resilience`` (with the 0/1 ``degraded``
    breaker gauge); ``adaptive`` (with ``cpu_only``, and ``scan_share``
    once scans were seen); ``lifecycle`` (with ``on_disk``, the
    snapshots on disk); ``mixed``; ``service``.
    """
    sources: Dict[str, Any] = {}
    if tree is not None:
        device = tree.device
        sources["gpu"] = {"kernel_launches": device.kernel_launches,
                          "mem": device.memory.counters,
                          "kernel": device.stats}
        sources["pcie"] = tree.link.stats
        sources["mem"] = tree.mem.counters
        cpu_tree = getattr(tree, "cpu_tree", tree)
        gaps = getattr(cpu_tree, "gap_stats", None)
        if gaps is not None:
            sources["tree"] = {"gap_occupancy": cpu_tree.gap_occupancy(),
                               "gaps": gaps}
    if resilient is not None:
        sources["resilience"] = {**resilient.stats.snapshot(),
                                 "degraded": resilient.degraded}
    if adaptive is not None:
        stats = adaptive.stats
        view = sources["adaptive"] = {**stats.snapshot(),
                                      "cpu_only": adaptive.cpu_only}
        if stats.queries and stats.scans:
            view["scan_share"] = stats.scans / stats.queries
    if lifecycle is not None:
        sources["lifecycle"] = {**lifecycle.stats.snapshot(),
                                "on_disk": len(lifecycle.snapshots())}
    if mixed is not None:
        view = sources["mixed"] = {
            "throughput_ops": mixed.throughput_ops,
            "total_ns": mixed.total_ns,
            "operations": mixed.schedule.operations,
        }
        for name in MIXED_COUNTERS:
            value = getattr(mixed, name, None)
            if value is not None:
                view[name] = value
    for prefix, source in sources.items():
        publish(metrics, prefix, source, **labels)
    if engine is not None:
        publish_engine(metrics, engine, engine_label, **labels)
    if service is not None:
        publish_service(metrics, service, **labels)
    return metrics.snapshot()
