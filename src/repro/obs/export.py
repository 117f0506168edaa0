"""Bridges from the existing per-module stats objects into a registry.

The simulator already accounts everything — but in scattered shapes:
``BatchStats`` on the engines, ``ResilienceStats`` on the resilient
tree, ``TransferStats`` on the PCIe link,
``AccessCounters`` in the memory system, ``GpuKernelStats`` +
``kernel_launches`` on the device, ``MirrorSyncStats`` per sync batch,
``PipelineStats`` / ``LockStats`` in the CPU layers.  These exporters
flatten any of them into one :class:`~repro.obs.metrics.MetricsRegistry`
under a common naming scheme, with labeled dimensions, so a benchmark
(or an operator) reads one ``snapshot()`` instead of seven objects.

All exporters are *pull*-style and side-effect-free on the source
objects: call them whenever a consistent cut is wanted.  Values land as
gauges (they are snapshots of externally-owned accumulators, not
registry-owned counts).

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


def stats_dict(obj: Any) -> Dict[str, Any]:
    """A plain-dict view of any stats object.

    Prefers the object's own ``snapshot()``; falls back to dataclass
    fields.  Nested dicts are kept (``publish`` flattens them).
    """
    snap = getattr(obj, "snapshot", None)
    if callable(snap):
        return snap()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot snapshot {type(obj).__name__}")


def _flatten(prefix: str, mapping: Dict[str, Any], out: Dict[str, float]) -> None:
    for name, value in mapping.items():
        key = f"{prefix}.{name}" if prefix else str(name)
        if isinstance(value, dict):
            _flatten(key, value, out)
        elif isinstance(value, bool):
            out[key] = int(value)
        elif isinstance(value, (int, float)):
            out[key] = value
        # non-numeric payloads (strings, arrays) are not metric material


def publish(metrics: MetricsRegistry, prefix: str, obj: Any,
            **labels) -> None:
    """Flatten one stats object into gauges under ``prefix.*``."""
    flat: Dict[str, float] = {}
    _flatten(prefix, stats_dict(obj), flat)
    for name, value in flat.items():
        metrics.gauge(name, **labels).set(value)


def publish_device(metrics: MetricsRegistry, device, **labels) -> None:
    """GPU device: launch counter, memory counters, kernel stats."""
    metrics.gauge("gpu.kernel_launches", **labels).set(device.kernel_launches)
    publish(metrics, "gpu.mem", device.memory.counters, **labels)
    publish(metrics, "gpu.kernel", device.stats, **labels)


def publish_link(metrics: MetricsRegistry, link, **labels) -> None:
    """PCIe link: the :class:`~repro.gpusim.transfer.TransferStats`."""
    publish(metrics, "pcie", link.stats, **labels)


def publish_memory(metrics: MetricsRegistry, mem, **labels) -> None:
    """CPU memory system: the :class:`AccessCounters` snapshot."""
    publish(metrics, "mem", mem.counters, **labels)


def publish_tree(metrics: MetricsRegistry, tree, **labels) -> None:
    """Everything a hybrid tree owns: device, link, host memory."""
    publish_device(metrics, tree.device, **labels)
    publish_link(metrics, tree.link, **labels)
    publish_memory(metrics, tree.mem, **labels)


def publish_engine(metrics: MetricsRegistry, engine,
                   engine_label: str, **labels) -> None:
    """A batch engine's stats under an ``engine=`` label."""
    publish(metrics, "engine", engine.stats, engine=engine_label, **labels)
    # properties are not dataclass fields; export the scan shape ones
    mean_len = getattr(engine.stats, "mean_scan_length", None)
    if mean_len is not None:
        metrics.gauge(
            "engine.mean_scan_length", engine=engine_label, **labels
        ).set(mean_len)


def publish_resilience(metrics: MetricsRegistry, resilient,
                       **labels) -> None:
    """A :class:`ResilientHBPlusTree`: stats + breaker state."""
    publish(metrics, "resilience", resilient.stats, **labels)
    state = "degraded" if resilient.degraded else "hybrid"
    metrics.gauge("resilience.degraded", state=state, **labels).set(
        int(resilient.degraded)
    )


def publish_adaptive(metrics: MetricsRegistry, controller,
                     **labels) -> None:
    """An :class:`~repro.core.adaptive.AdaptiveController`: window /
    rebalance counters plus the split currently in force."""
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
    """A :class:`repro.lifecycle.SnapshotManager`: snapshot/restore
    counters plus the number of snapshots currently on disk."""
    publish(metrics, "lifecycle", manager.stats, **labels)
    metrics.gauge("lifecycle.on_disk", **labels).set(
        len(manager.snapshots())
    )


def publish_mixed(metrics: MetricsRegistry, result,
                  **labels) -> None:
    """An :class:`~repro.core.mixed.OptimisticRunResult` (or plain
    :class:`~repro.core.mixed.MixedRunResult`): retry counters, the
    dirty-node mirror sync accounting, and gap write-path behaviour."""
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
    """A gapped tree's current slot occupancy + cumulative GapStats."""
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
    """An :class:`repro.service.IndexService`: per-shard serving and
    admission gauges, per-tenant quota gauges, service latency."""
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
    """One-call convenience: publish whatever is given, return the
    registry snapshot."""
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
