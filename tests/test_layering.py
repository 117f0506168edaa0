"""The library below ``repro.bench`` never imports from it, its
product classes carry no reference twins, the CPU trees write only
through their batch write, every shard reads and writes through its one
engine, and only the hybrid trees write their device mirrors.

``repro.bench`` holds the figures, gates and their drivers; it builds
on the rest of the package, never the other way round.  Every import
statement counts, function-local ones included.
"""

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.io
from repro.core.batching import BatchingEngine
from repro.core.resilience import ResilientHBPlusTree
from repro.core.update import SyncUpdater
from repro.cpu import GappedCpuBPlusTree, RegularCpuBPlusTree
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


def class_methods(path: Path):
    """``(class, method)`` of every method a file's classes define."""
    return [
        (node.name, item.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def reference_methods(path: Path):
    """``(class, method)`` of every reference-only method a file's
    classes define."""
    return [(cls, name) for cls, name in class_methods(path)
            if name.endswith(("_scalar", "_literal"))
            or name in REFERENCE_ONLY]


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


# --- the CPU trees' one write -------------------------------------------

#: the per-op structural writes ``apply_batch`` replaced; they live on
#: only as the oracle in ``tests/write_oracles.py``
SCALAR_STRUCTURAL = {"_split_leaf", "_insert_into_parent", "_split_upper",
                     "_remove_empty_leaf", "_remove_child", "_collapse_root",
                     "_bubble_up_max"}


def scalar_structural_methods(path: Path):
    """``(class, method)`` of every per-op structural write a file's
    classes define."""
    return [(cls, name) for cls, name in class_methods(path)
            if name in SCALAR_STRUCTURAL]


def test_cpu_trees_define_no_scalar_structural_write():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted((SRC / "cpu").rglob("*.py"))
        if (hits := scalar_structural_methods(path))
    }
    assert offenders == {}


def test_the_structural_scan_sees_planted_methods(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _split_leaf(tree):\n    pass\n"
        "class T:\n"
        "    def _split_upper(self):\n        pass\n"
        "    def _split_row(self):\n        pass\n"
        "    def _collapse_root(self):\n        pass\n"
    )
    assert scalar_structural_methods(probe) == [
        ("T", "_split_upper"), ("T", "_collapse_root"),
    ]


@pytest.mark.parametrize("cls", [RegularCpuBPlusTree, GappedCpuBPlusTree])
@pytest.mark.parametrize("method", ["insert", "delete"])
def test_one_key_writes_make_one_batch_write(cls, method):
    source = inspect.getsource(getattr(cls, method))
    assert write_calls(source) == ["self.apply_batch"]


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


# -- one read and one write path per shard -------------------------------
#
# A shard reads and writes only through its engine.  On a drilled shard
# the resilience policy runs inside that engine, once per lookup call,
# once per scan bucket and once per update batch, not in a second read
# or write loop around it, and it has no entry point of its own.


def test_shards_hold_no_second_read_object():
    assert "obs" not in inspect.signature(ResilientHBPlusTree).parameters
    keys = np.arange(1, 2001, dtype=np.uint64)
    for extra in ({}, {"fault_plan": FaultPlan.none(seed=1)}):
        shard = Shard(0, keys, keys, machine=machine_m1(), **extra)
        assert not hasattr(shard, "_server")


def test_drilled_engines_serve_bit_identical_reads():
    keys, values = generate_dataset(1 << 12, seed=3)
    plain = Shard(0, keys, values, machine=machine_m1())
    drilled = Shard(0, keys, values, machine=machine_m1(),
                    fault_plan=FaultPlan.uniform(0.2, seed=5))
    rng = np.random.default_rng(11)
    batches = drilled.resilient.stats.batches
    for _ in range(6):
        q = np.concatenate([
            rng.choice(keys, 600),
            rng.integers(1, 2**40, size=100, dtype=np.uint64),
        ])
        np.testing.assert_array_equal(drilled.engine.lookup_batch(q),
                                      plain.engine.lookup_batch(q))
        los = rng.choice(keys, 12)
        his = los + np.uint64(2**30)
        assert drilled.engine.run_scans(los, his) == \
            plain.engine.run_scans(los, his)
    # one policy batch per lookup call and per (single-bucket) scan call
    assert drilled.resilient.stats.batches == batches + 12
    assert drilled.injector.stats.total_faults > 0


#: call names that write a tree or pick a write
WRITE_CALLS = {"apply_updates", "serve_updates", "write_batch", "apply",
               "apply_batch", "merge_rebuild", "rebuild", "insert",
               "delete"}


def write_calls(source: str):
    """The dotted name of every write call in a function's source."""
    tree = ast.parse(textwrap.dedent(source))
    return [
        ast.unparse(node.func) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in WRITE_CALLS
    ]


def test_shards_write_through_one_engine_call():
    source = inspect.getsource(Shard.apply_updates)
    assert write_calls(source) == ["self.engine.apply_updates"]


def test_the_write_scan_sees_every_route():
    """The three-way shard write this layer replaced."""
    source = (
        "def apply_updates(self, keys, values, deletes=()):\n"
        "    if self.kind == 'hb-implicit':\n"
        "        self.tree.merge_rebuild(keys, values, deletes)\n"
        "    elif self.resilient is not None:\n"
        "        self.resilient.apply_updates(keys, values, deletes,\n"
        "                                     method='sync')\n"
        "    else:\n"
        "        SyncUpdater(self.tree).apply(keys, values, deletes)\n"
    )
    assert sorted(write_calls(source)) == [
        "SyncUpdater(self.tree).apply", "self.resilient.apply_updates",
        "self.tree.merge_rebuild",
    ]


def test_shards_import_no_updater():
    tree = ast.parse(Path(inspect.getfile(Shard)).read_text())
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"SyncUpdater", "AsyncBatchUpdater",
                           "GpuAssistedUpdater", "repro.core.update"}


def test_the_policy_has_only_its_hooks():
    """Public methods: the engine's three hooks and ``snapshot_to``;
    public properties: ``degraded`` and the ``obs`` bundle it reads."""
    public = {name: value for name, value in vars(ResilientHBPlusTree).items()
              if not name.startswith("_")}
    methods = {name for name, value in public.items() if callable(value)}
    assert methods == {"serve_lookups", "serve_scan_bucket",
                       "serve_updates", "snapshot_to"}
    assert set(public) - methods == {"degraded", "obs"}
    assert "method" not in \
        inspect.signature(ResilientHBPlusTree.serve_updates).parameters


# -- mirror writers ------------------------------------------------------
#
# ``HBPlusTree.verify_mirror`` compares only the rows its write ledger
# names, so every write to a device mirror must go through the tree
# that owns it.  The scan flags device writes by method, not by buffer
# name: a mirror uploaded under a new name is caught as well.

#: device-memory writers: the link's uploads and ranged pushes, and
#: the buffer's growth
MIRROR_WRITES = {"update_device", "to_device", "resize", "upload"}
#: the two trees that own a mirror; the device simulator (``gpusim/``)
#: implements the writes
MIRROR_OWNERS = {"core/hbtree.py", "core/hbtree_implicit.py"}


def _is_numpy(expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id in ("np", "numpy")


def mirror_writes(path: Path):
    """``(line, method)`` of every device write a file makes, whatever
    buffer it names (numpy's own ``resize`` is not one)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MIRROR_WRITES
                and not _is_numpy(node.func.value)):
            found.append((node.lineno, node.func.attr))
    return found


def test_only_the_hybrid_trees_write_their_mirrors():
    offenders = {
        rel: hits
        for path in sorted(SRC.rglob("*.py"))
        if (rel := str(path.relative_to(SRC))) not in MIRROR_OWNERS
        and not rel.startswith("gpusim/")
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
        "    tree.device.memory.upload('css_dir', flat)\n"
    )
    assert mirror_writes(probe) == [
        (2, "update_device"), (4, "to_device"), (5, "resize"),
        (6, "to_device"), (8, "upload"),
    ]


# -- one batched node search ---------------------------------------------
#
# A batch's lower bound over its rows (the paper's node search, section
# 5.3) is computed in one function, ``repro.descent.lower_bound``, which
# picks the whole-row or the branchless form by batch size.  The scan
# flags both forms written out anywhere: a ``< x[:, None]`` compare
# counted over axis 1, and a halving ``>> 1`` loop.

#: the one owner: (file, function)
LOWER_BOUND_OWNER = ("descent.py", "lower_bound")


def _is_column(expr) -> bool:
    """``x[:, None]``: a 1-D array stood up against rows."""
    return (isinstance(expr, ast.Subscript)
            and isinstance(expr.slice, ast.Tuple)
            and len(expr.slice.elts) == 2
            and isinstance(expr.slice.elts[0], ast.Slice)
            and isinstance(expr.slice.elts[1], ast.Constant)
            and expr.slice.elts[1].value is None)


def _row_compare(expr) -> bool:
    """``rows < x[:, None]``."""
    return (isinstance(expr, ast.Compare)
            and isinstance(expr.ops[0], ast.Lt)
            and _is_column(expr.comparators[0]))


def _whole_row_count(node, compared=frozenset()) -> bool:
    """``np.sum(rows < x[:, None], axis=1)``, ``count_nonzero`` or the
    method form ``(rows < x[:, None]).sum(axis=1)``; the compare may
    be a name bound to it (``compared``)."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sum", "count_nonzero")):
        return False
    numpy_form = _is_numpy(node.func.value)
    axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
    axes += node.args[1:2] if numpy_form else node.args[:1]
    if not any(isinstance(axis, ast.Constant) and axis.value == 1
               for axis in axes):
        return False
    counted = node.args[0] if numpy_form and node.args else node.func.value
    return _row_compare(counted) or (
        isinstance(counted, ast.Name) and counted.id in compared)


def _halves(node) -> bool:
    """``x >>= 1`` or ``x >> 1``."""
    if isinstance(node, ast.AugAssign):
        right = node.value
    elif isinstance(node, ast.BinOp):
        right = node.right
    else:
        return False
    return (isinstance(node.op, ast.RShift)
            and isinstance(right, ast.Constant) and right.value == 1)


def _halving_loop(node) -> bool:
    """A ``while`` loop that halves a step: ``step >>= 1`` or
    ``half = span >> 1``."""
    return isinstance(node, ast.While) and any(
        _halves(inner) for inner in ast.walk(node))


def row_lower_bounds(path: Path):
    """``(line, function, form)`` of every batched row lower bound a
    file writes out, ``function`` being the enclosing one."""
    tree = ast.parse(path.read_text(), str(path))
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}

    def owner(node):
        while node in parent:
            node = parent[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return "<module>"

    compared = frozenset(
        target.id for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _row_compare(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    )
    return sorted(
        (node.lineno, owner(node), form)
        for node in ast.walk(tree)
        for form, hit in (("whole-row", _whole_row_count(node, compared)),
                          ("branchless", _halving_loop(node)))
        if hit
    )


def test_one_function_computes_a_batched_lower_bound():
    owners = {
        (str(path.relative_to(SRC)), function)
        for path in sorted(SRC.rglob("*.py"))
        for _line, function, _form in row_lower_bounds(path)
    }
    assert owners == {LOWER_BOUND_OWNER}
    assert {form for *_, form in row_lower_bounds(SRC / "descent.py")} \
        == {"whole-row", "branchless"}


def test_the_lower_bound_scan_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def walk(view, node, q):\n"
        "    k = np.sum(view[node] < q[:, None], axis=1)\n"
        "    hit = np.any(view[node] == q[:, None], axis=1)\n"
        "    low = (view[node] < q[:, None]).sum(axis=1)\n"
        "    below = view[node] < q[:, None]\n"
        "    n = below.sum(axis=1, dtype=np.int32) + np.sum(below, 1)\n"
        "    return np.count_nonzero(view[node] < q[:, None], axis=1)\n"
        "class T:\n"
        "    def finish(self, keys, pos, q):\n"
        "        step = 4\n"
        "        while step:\n"
        "            pos += (keys[pos + step - 1] < q) * step\n"
        "            step >>= 1\n"
        "        total = np.sum(keys < q[:, None], axis=0)\n"
        "        return pos\n"
    )
    assert row_lower_bounds(probe) == [
        (2, "walk", "whole-row"), (4, "walk", "whole-row"),
        (6, "walk", "whole-row"), (6, "walk", "whole-row"),
        (7, "walk", "whole-row"), (11, "finish", "branchless"),
    ]
