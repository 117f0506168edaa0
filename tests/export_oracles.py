"""The per-type export bridges: the oracle of the one export path.

``repro.obs.export.collect_all`` publishes every source through one
``publish`` and reads each stats record through the shared
``Stats.snapshot()``.  The bridges below are the export it replaced:
one hand-written function per source type, writing each gauge by name,
over record views written out without the shared base.  They never
drop a gauge, so a series here outlives its source.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.core.resilience import ResilienceStats
from repro.obs.metrics import MetricsRegistry


def stats_dict(obj: Any) -> Dict[str, Any]:
    """A record's fields; ``ResilienceStats`` rounds its modeled times
    to 3 decimals."""
    view = dataclasses.asdict(obj)
    if isinstance(obj, ResilienceStats):
        for name in ("served_ns", "penalty_ns", "backoff_ns", "timeout_ns",
                     "repair_transfer_ns"):
            view[name] = round(view[name], 3)
    return view


def _flatten(prefix: str, mapping: Dict[str, Any], out: Dict[str, float]) -> None:
    for name, value in mapping.items():
        key = f"{prefix}.{name}" if prefix else str(name)
        if isinstance(value, dict):
            _flatten(key, value, out)
        elif isinstance(value, bool):
            out[key] = int(value)
        elif isinstance(value, (int, float)):
            out[key] = value


def publish(metrics: MetricsRegistry, prefix: str, obj: Any,
            **labels) -> None:
    flat: Dict[str, float] = {}
    _flatten(prefix, stats_dict(obj), flat)
    for name, value in flat.items():
        metrics.gauge(name, **labels).set(value)


def publish_device(metrics: MetricsRegistry, device, **labels) -> None:
    metrics.gauge("gpu.kernel_launches", **labels).set(device.kernel_launches)
    publish(metrics, "gpu.mem", device.memory.counters, **labels)
    publish(metrics, "gpu.kernel", device.stats, **labels)


def publish_link(metrics: MetricsRegistry, link, **labels) -> None:
    publish(metrics, "pcie", link.stats, **labels)


def publish_memory(metrics: MetricsRegistry, mem, **labels) -> None:
    publish(metrics, "mem", mem.counters, **labels)


def publish_tree(metrics: MetricsRegistry, tree, **labels) -> None:
    publish_device(metrics, tree.device, **labels)
    publish_link(metrics, tree.link, **labels)
    publish_memory(metrics, tree.mem, **labels)


def publish_engine(metrics: MetricsRegistry, engine,
                   engine_label: str, **labels) -> None:
    publish(metrics, "engine", engine.stats, engine=engine_label, **labels)
    mean_len = getattr(engine.stats, "mean_scan_length", None)
    if mean_len is not None:
        metrics.gauge(
            "engine.mean_scan_length", engine=engine_label, **labels
        ).set(mean_len)


def publish_resilience(metrics: MetricsRegistry, resilient,
                       **labels) -> None:
    publish(metrics, "resilience", resilient.stats, **labels)
    state = "degraded" if resilient.degraded else "hybrid"
    metrics.gauge("resilience.degraded", state=state, **labels).set(
        int(resilient.degraded)
    )


def publish_adaptive(metrics: MetricsRegistry, controller,
                     **labels) -> None:
    publish(metrics, "adaptive", controller.stats, **labels)
    metrics.gauge("adaptive.cpu_only", **labels).set(
        int(controller.cpu_only)
    )
    stats = controller.stats
    if getattr(stats, "queries", 0) and getattr(stats, "scans", 0):
        metrics.gauge("adaptive.scan_share", **labels).set(
            stats.scans / stats.queries
        )


def publish_lifecycle(metrics: MetricsRegistry, manager,
                      **labels) -> None:
    publish(metrics, "lifecycle", manager.stats, **labels)
    metrics.gauge("lifecycle.on_disk", **labels).set(
        len(manager.snapshots())
    )


def publish_mixed(metrics: MetricsRegistry, result,
                  **labels) -> None:
    metrics.gauge("mixed.throughput_ops", **labels).set(
        result.throughput_ops
    )
    metrics.gauge("mixed.total_ns", **labels).set(result.total_ns)
    metrics.gauge("mixed.operations", **labels).set(
        result.schedule.operations
    )
    for name in ("retries", "retry_ns", "dirty_nodes", "sync_transfers",
                 "sync_bytes", "sync_faults", "gap_writes",
                 "shift_writes", "splits"):
        value = getattr(result, name, None)
        if value is not None:
            metrics.gauge(f"mixed.{name}", **labels).set(value)
    rebuilt = getattr(result, "mirror_rebuilt", None)
    if rebuilt is not None:
        metrics.gauge("mixed.mirror_rebuilt", **labels).set(int(rebuilt))


def publish_gap_occupancy(metrics: MetricsRegistry, tree,
                          **labels) -> None:
    cpu_tree = getattr(tree, "cpu_tree", tree)
    occupancy = getattr(cpu_tree, "gap_occupancy", None)
    if occupancy is not None:
        metrics.gauge("tree.gap_occupancy", **labels).set(occupancy())
    gap_stats = getattr(cpu_tree, "gap_stats", None)
    if gap_stats is not None:
        publish(metrics, "tree.gaps", gap_stats, **labels)
        metrics.gauge("tree.gaps.in_place_fraction", **labels).set(
            gap_stats.in_place_fraction
        )


def publish_service(metrics: MetricsRegistry, service,
                    **labels) -> None:
    stats = service.stats()
    metrics.gauge("service.shards", **labels).set(
        stats["router"]["n_shards"]
    )
    metrics.gauge("service.epoch", **labels).set(
        stats["router"]["epoch"]
    )
    metrics.gauge("service.splits", **labels).set(stats["splits"])
    metrics.gauge("service.merges", **labels).set(stats["merges"])
    metrics.gauge("service.snapshot_failures", **labels).set(
        stats["snapshot_failures"]
    )
    for name, value in stats["latency"].items():
        if isinstance(value, (int, float)):
            metrics.gauge(f"service.latency.{name}", **labels).set(value)
    for row in stats["shards"]:
        shard_labels = dict(labels, shard=str(row["position"]))
        for field in ("n_keys", "lookups", "scans", "update_ops",
                      "batches", "faults"):
            metrics.gauge(f"service.shard.{field}",
                          **shard_labels).set(row[field])
        for field, value in row["admission"].items():
            metrics.gauge(f"service.shard.admission.{field}",
                          **shard_labels).set(value)
    for tenant, row in stats["tenants"].items():
        tenant_labels = dict(labels, tenant=tenant)
        for field in ("capacity", "available", "admitted_ops",
                      "rejected_ops"):
            metrics.gauge(f"service.tenant.{field}",
                          **tenant_labels).set(row[field])


def collect_all(metrics: MetricsRegistry, tree=None, engine=None,
                engine_label: str = "batch", resilient=None,
                adaptive=None, lifecycle=None, mixed=None,
                service=None, **labels) -> Dict[str, Any]:
    if tree is not None:
        publish_tree(metrics, tree, **labels)
        publish_gap_occupancy(metrics, tree, **labels)
    if engine is not None:
        publish_engine(metrics, engine, engine_label, **labels)
    if resilient is not None:
        publish_resilience(metrics, resilient, **labels)
    if adaptive is not None:
        publish_adaptive(metrics, adaptive, **labels)
    if lifecycle is not None:
        publish_lifecycle(metrics, lifecycle, **labels)
    if mixed is not None:
        publish_mixed(metrics, mixed, **labels)
    if service is not None:
        publish_service(metrics, service, **labels)
    return metrics.snapshot()
