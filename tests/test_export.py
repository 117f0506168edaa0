"""The one export path: every stats record derives one base, every
source is published through ``publish``, the exported series equal the
per-type bridges' (:mod:`tests.export_oracles`), and a re-publish
retires the gauges whose source is gone."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.obs
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.batching import BatchingEngine, BatchStats
from repro.core.gpu_update import GpuUpdateStats
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.mixed import OptimisticMixedEngine
from repro.core.resilience import ResilienceConfig, ResilientHBPlusTree
from repro.core.update import UpdateStats
from repro.faults import FaultInjector, FaultPlan
from repro.lifecycle import SnapshotManager
from repro.obs import MetricsRegistry, Stats, collect_all, publish
from repro.service import IndexService, QuotaConfig, ServiceConfig
from repro.service.shard import ShardStats
from repro.workloads.generators import generate_dataset
from repro.workloads.queries import make_update_mix
from tests import export_oracles

SRC = Path(repro.__file__).parent

#: the one record that keeps a ``snapshot`` of its own (it rounds)
OWN_SNAPSHOT = {("ResilienceStats", "snapshot")}
BASE_METHODS = {"snapshot", "reset", "copy", "add", "merge"}


@pytest.fixture(scope="module")
def data():
    keys, values = generate_dataset(1 << 12, seed=23)
    order = np.argsort(keys)
    return keys[order], values[order]


# -- the base ------------------------------------------------------------


def stats_classes(path: Path):
    """``(class, own base-method names)`` of every ``*Stats`` /
    ``*Counters`` dataclass a file defines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.ClassDef)
                and node.name.endswith(("Stats", "Counters"))):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        own = sorted(item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name in BASE_METHODS)
        found.append((node.name, own))
    return found


def test_stats_records_derive_the_one_base():
    records = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for name, own in stats_classes(path):
            records[name] = (getattr(importlib.import_module(module), name),
                             own)
    assert len(records) >= 13
    assert [name for name, (cls, _own) in records.items()
            if not issubclass(cls, Stats)] == []
    assert {(name, method) for name, (_cls, own) in records.items()
            for method in own} == OWN_SNAPSHOT


def test_the_record_scan_sees_dataclasses_and_their_methods(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class AStats:\n"
        "    n: int = 0\n"
        "    def reset(self):\n        pass\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class BCounters:\n"
        "    def merge(self, other):\n        pass\n"
        "    def total(self):\n        pass\n"
        "class CStats:\n"
        "    def snapshot(self):\n        pass\n"
    )
    assert stats_classes(probe) == [("AStats", ["reset"]),
                                    ("BCounters", ["merge"])]


def test_obs_exports_one_publish_path():
    assert sorted(name for name in repro.obs.__all__
                  if name.startswith("publish")) \
        == ["publish", "publish_engine", "publish_service"]


def test_snapshot_lists_fields_then_exported_properties():
    stats = ShardStats(sid=1, n_keys=5, lookups=2, scans=0, update_ops=0,
                       batches=1, admission={"shed_ops": 0}, faults=0)
    snap = stats.snapshot()
    assert list(snap) == ["sid", "n_keys", "lookups", "scans",
                          "update_ops", "batches", "admission", "faults"]
    snap["admission"]["shed_ops"] = 9
    assert stats.admission == {"shed_ops": 0}
    snap = BatchStats(scans=2, scan_tuples=5).snapshot()
    assert list(snap)[-1] == "mean_scan_length"
    assert snap["mean_scan_length"] == 2.5


def test_reset_copy_and_add_cover_every_field():
    base = UpdateStats(applied=3, modify_ns=2.0)
    base.reset()
    assert base == UpdateStats()
    # a subclass resets its own fields too, whichever class reset first
    stats = GpuUpdateStats(applied=4, gpu_locate_ns=7.0, redescended=2)
    snap = stats.copy()
    stats.add(snap)
    assert (stats.applied, stats.gpu_locate_ns, stats.redescended) \
        == (8, 14.0, 4)
    assert (snap.applied, snap.gpu_locate_ns) == (4, 7.0)
    stats.reset()
    assert stats == GpuUpdateStats()


# -- the replacement rule ------------------------------------------------


def test_publish_replaces_only_its_prefix_and_label_scope():
    reg = MetricsRegistry()
    publish(reg, "x", {"a": 1, "b": 2}, run="1")
    publish(reg, "x", {"a": 3}, run="2")
    publish(reg, "xy", {"a": 4})
    reg.counter("x.hits").inc(5)
    publish(reg, "x", {"a": 5}, run="1")
    assert reg.snapshot() == {"x.a{run=1}": 5, "x.a{run=2}": 3,
                              "x.hits": 5, "xy.a": 4}
    publish(reg, "x", {})
    assert reg.snapshot() == {"x.hits": 5, "xy.a": 4}


def test_republish_retires_a_recovered_breaker_state(data, m1):
    keys, values = data
    injector = FaultInjector(FaultPlan.uniform(1.0, seed=9))
    r = ResilientHBPlusTree(HBPlusTree(keys, values, machine=m1),
                            injector=injector,
                            config=ResilienceConfig(probe_interval=2))
    reg = MetricsRegistry()
    for _ in range(4):
        r.lookup_batch(keys[:256])
    assert r.degraded
    snap = collect_all(reg, resilient=r)
    assert {k: v for k, v in snap.items()
            if k.startswith("resilience.degraded")} \
        == {"resilience.degraded": 1}
    injector.plan = FaultPlan.none(seed=9)
    for _ in range(4):
        r.lookup_batch(keys[:256])
    assert not r.degraded
    snap = collect_all(reg, resilient=r)
    assert {k: v for k, v in snap.items()
            if k.startswith("resilience.degraded")} \
        == {"resilience.degraded": 0}


def test_republish_retires_a_merged_away_shard(data, m1):
    keys, values = data
    svc = IndexService.build(keys, values,
                             ServiceConfig(n_shards=4, machine=m1))
    svc.lookup_batch(keys)
    reg = MetricsRegistry()
    collect_all(reg, service=svc)
    svc.merge_shards(0)
    snap = collect_all(reg, service=svc)
    lookups = {k: v for k, v in snap.items()
               if k.startswith("service.shard.lookups")}
    assert sorted(lookups) == [f"service.shard.lookups{{shard={i}}}"
                               for i in range(3)]
    assert sum(lookups.values()) \
        == sum(row["lookups"] for row in svc.stats()["shards"])
    assert not any("shard=3" in k for k in snap)


# -- same numbers out ----------------------------------------------------


EAGER = AdaptiveConfig(window_buckets=2, sample_size=512,
                       hysteresis_gain=0.0, confirm_windows=1)


def seven_sources(keys, values, m1, tmp_path):
    """One source of every kind ``collect_all`` takes, each with work
    behind its counters."""
    gapped = HBPlusTree(keys, values, machine=m1, gapped=True, fill=0.7)
    mixed = OptimisticMixedEngine(gapped).run(
        make_update_mix(keys, 800, 0.2, delete_ratio=0.1))
    engine = BatchingEngine(gapped, bucket_size=128)
    engine.lookup_batch(keys[::7])
    engine.run_scans(keys[10:20], keys[30:40])

    resilient = ResilientHBPlusTree(
        HBPlusTree(keys, values, machine=m1),
        injector=FaultInjector(FaultPlan.uniform(0.3, seed=4)))
    for start in range(0, 2048, 256):
        resilient.lookup_batch(keys[start:start + 256])

    itree = ImplicitHBPlusTree(keys, values, machine=m1)
    controller = AdaptiveController.for_tree(itree, config=EAGER,
                                             bucket_size=512)
    adaptive_engine = BatchingEngine(itree, bucket_size=512,
                                     balancer=controller)
    adaptive_engine.lookup_batch(keys[::3])
    adaptive_engine.run_scans(keys[100:140], keys[120:160])

    manager = SnapshotManager(tmp_path)
    manager.save(gapped)
    manager.save(gapped)
    manager.restore_latest(machine=m1)

    svc = IndexService.build(keys, values, ServiceConfig(
        n_shards=4, machine=m1,
        quota=QuotaConfig(tenants={"t": (1e6, 0.0)})))
    svc.lookup_batch(keys, tenant="t")
    svc.run_scans(keys[:8], keys[8:16])
    svc.merge_shards(1)
    return {"tree": gapped, "engine": engine, "resilient": resilient,
            "adaptive": controller, "lifecycle": manager, "mixed": mixed,
            "service": svc}


def test_collect_all_exports_what_the_bridges_exported(data, m1, tmp_path):
    keys, values = data
    sources = seven_sources(keys, values, m1, tmp_path)
    for kind, source in sources.items():
        for labels in ({}, {"run": "a"}):
            got = collect_all(MetricsRegistry(), **{kind: source}, **labels)
            want = export_oracles.collect_all(MetricsRegistry(),
                                              **{kind: source}, **labels)
            assert len(got) > 3, kind
            if kind == "resilient":
                # the one series that changed: the breaker's state label
                # became its 0/1 value
                old = [k for k in want if k.startswith("resilience.degraded")]
                new = [k for k in got if k.startswith("resilience.degraded")]
                assert [want.pop(k) for k in old] \
                    == [got.pop(k) for k in new] == [int(source.degraded)]
                assert "state=" in old[0] and "state=" not in new[0]
            assert got == want, kind
    # the sources moved the counters the export reads
    registry = MetricsRegistry()
    snap = collect_all(registry, **sources)
    assert snap["tree.gaps.gap_writes"] > 0
    assert snap["engine.mean_scan_length{engine=batch}"] > 0
    assert snap["resilience.faults_handled"] > 0
    assert snap["adaptive.scan_share"] > 0
    assert snap["lifecycle.restores"] == 1
    assert snap["mixed.operations"] > 0 and snap["mixed.dirty_nodes"] > 0
    assert snap["service.merges"] == 1
    assert snap["service.tenant.admitted_ops{tenant=t}"] == len(keys)
