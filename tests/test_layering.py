"""The library below ``repro.bench`` never imports from it, its
product classes carry no reference twins, every shard reads through
its one engine, and only the hybrid trees write their device mirrors.

``repro.bench`` holds the figures, gates and their drivers; it builds
on the rest of the package, never the other way round.  Every import
statement counts, function-local ones included.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np

import repro
import repro.io
from repro.core.batching import BatchingEngine
from repro.core.resilience import ResilientHBPlusTree
from repro.core.update import SyncUpdater
from repro.faults import FaultPlan
from repro.platform.configs import machine_m1
from repro.service import ServiceConfig
from repro.service.shard import Shard
from repro.workloads.generators import generate_dataset

SRC = Path(repro.__file__).parent
BENCH = SRC / "bench"


def bench_imports(path: Path):
    """``(line, module)`` of every import of ``repro.bench`` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "repro.bench" or name.startswith("repro.bench.")]
    return found


def test_nothing_outside_bench_imports_bench():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if BENCH not in path.parents
        and (hits := bench_imports(path))
    }
    assert offenders == {}


def test_the_scan_sees_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from repro.bench.profiling import profile_regular\n"
        "    import repro.bench\n"
    )
    assert bench_imports(probe) == [
        (2, "repro.bench.profiling"), (3, "repro.bench"),
    ]


# -- the product surface ------------------------------------------------
#
# Each operation is implemented once in the product classes.  Slot-by-
# slot reference walks, literal SIMT replays, per-node sync paths and
# baseline measurements live next to their only callers: the gate
# drivers in ``repro.bench`` and the oracles in ``tests/``.

#: methods that only a gate baseline or a test oracle calls
REFERENCE_ONLY = {"sync_node", "_pack_node", "_slot_is_live",
                  "_apply_per_node"}


def reference_methods(path: Path):
    """``(class, method)`` of every reference-only method a file's
    classes define."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        found += [
            (node.name, item.name) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (item.name.endswith(("_scalar", "_literal"))
                 or item.name in REFERENCE_ONLY)
        ]
    return found


def test_product_classes_define_no_reference_twins():
    offenders = {
        str(path.relative_to(SRC)): hits
        for package in ("cpu", "core")
        for path in sorted((SRC / package).rglob("*.py"))
        if (hits := reference_methods(path))
    }
    assert offenders == {}


def test_the_twin_scan_sees_methods_not_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def pack_scalar():\n    pass\n"
        "class T:\n"
        "    def range_query_scalar(self):\n        pass\n"
        "    def sync_node(self):\n        pass\n"
        "    def sync_nodes(self):\n        pass\n"
    )
    assert reference_methods(probe) == [
        ("T", "range_query_scalar"), ("T", "sync_node"),
    ]


def test_engine_and_updater_take_no_baseline_options():
    assert "batched" not in inspect.signature(SyncUpdater).parameters
    assert "measure_baseline" not in \
        inspect.signature(BatchingEngine).parameters


def test_service_config_has_no_dead_snapshot_dir():
    """Split/merge durability comes from ``IndexService.build(
    snapshot_manager=)``; no config field promises it."""
    assert "snapshot_dir" not in {
        f.name for f in dataclasses.fields(ServiceConfig)}


def test_io_reads_contents_without_a_type_ladder():
    tree = ast.parse((SRC / "io.py").read_text())
    calls = [
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
    ]
    assert calls == []
    assert not hasattr(repro.io, "_contents")


# -- one read path per shard ---------------------------------------------
#
# A shard reads only through its engine.  On a drilled shard the
# resilience policy runs inside that engine, once per lookup call and
# once per scan bucket, not in a second read loop around it.


def test_shards_hold_no_second_read_object():
    assert "obs" not in inspect.signature(ResilientHBPlusTree).parameters
    keys = np.arange(1, 2001, dtype=np.uint64)
    for extra in ({}, {"fault_plan": FaultPlan.none(seed=1)}):
        shard = Shard(0, keys, keys, machine=machine_m1(), **extra)
        assert not hasattr(shard, "_server")


def test_drilled_shards_read_without_the_wrapper_entry_points(monkeypatch):
    keys, values = generate_dataset(1 << 12, seed=3)
    plain = Shard(0, keys, values, machine=machine_m1())
    drilled = Shard(0, keys, values, machine=machine_m1(),
                    fault_plan=FaultPlan.uniform(0.2, seed=5))

    def refuse(*args, **kwargs):
        raise AssertionError("a shard read through the wrapper")

    monkeypatch.setattr(ResilientHBPlusTree, "lookup_batch", refuse)
    monkeypatch.setattr(ResilientHBPlusTree, "run_scans", refuse)
    rng = np.random.default_rng(11)
    batches = drilled.resilient.stats.batches
    for _ in range(6):
        q = np.concatenate([
            rng.choice(keys, 600),
            rng.integers(1, 2**40, size=100, dtype=np.uint64),
        ])
        np.testing.assert_array_equal(drilled.lookup_batch(q),
                                      plain.lookup_batch(q))
        los = rng.choice(keys, 12)
        his = los + np.uint64(2**30)
        assert drilled.run_scans(los, his) == plain.run_scans(los, his)
    # one policy batch per lookup call and per (single-bucket) scan call
    assert drilled.resilient.stats.batches == batches + 12
    assert drilled.injector.stats.total_faults > 0


# -- mirror writers ------------------------------------------------------
#
# ``HBPlusTree.verify_mirror`` compares only the rows its write ledger
# names, so every write to a device mirror must go through the tree
# that owns it.

#: device-memory writers: the link's uploads and ranged pushes, and
#: the buffer's growth
MIRROR_WRITES = {"update_device", "to_device", "resize", "upload"}
MIRROR_BUFFERS = {"iseg", "iseg_regular"}
MIRROR_OWNERS = {"core/hbtree.py", "core/hbtree_implicit.py"}


def _names_a_mirror(expr) -> bool:
    return any(
        (isinstance(node, ast.Constant) and node.value in MIRROR_BUFFERS)
        or (isinstance(node, ast.Attribute) and node.attr == "iseg_buffer")
        for node in ast.walk(expr)
    )


def mirror_writes(path: Path):
    """``(line, method)`` of every device write a file makes to a
    mirror buffer."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MIRROR_WRITES
                and any(_names_a_mirror(arg) for arg in
                        node.args + [kw.value for kw in node.keywords])):
            found.append((node.lineno, node.func.attr))
    return found


def test_only_the_hybrid_trees_write_their_mirrors():
    offenders = {
        rel: hits
        for path in sorted(SRC.rglob("*.py"))
        if (rel := str(path.relative_to(SRC))) not in MIRROR_OWNERS
        and (hits := mirror_writes(path))
    }
    assert offenders == {}


def test_the_mirror_scan_sees_every_writer(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(tree, flat):\n"
        "    tree.link.update_device(tree.device.memory, 'iseg_regular',\n"
        "                            flat, offset_elems=0)\n"
        "    tree.link.to_device(mem, name='iseg', host_array=flat)\n"
        "    tree.device.memory.resize(tree.iseg_buffer.name, 9)\n"
        "    tree.link.to_device(mem, 'css_dir', flat)\n"
        "    np.resize(flat, 9)\n"
    )
    assert mirror_writes(probe) == [
        (2, "update_device"), (4, "to_device"), (5, "resize"),
    ]
