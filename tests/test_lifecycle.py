"""Crash-consistent lifecycle: snapshot, restore ladder, warm restart."""

import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.lifecycle import cold_build_per_key
from repro.core.adaptive import AdaptiveController
from repro.core.batching import BatchingEngine
from repro.core.hbtree import HBPlusTree
from repro.core.hbtree_implicit import ImplicitHBPlusTree
from repro.core.resilience import ResilientHBPlusTree
from repro.cpu.btree_implicit import ImplicitCpuBPlusTree
from repro.cpu.btree_regular import RegularCpuBPlusTree
from repro.cpu.css_tree import CssTree
from repro.cpu.fast_tree import FastTree
from repro.faults import FaultInjector, FaultPlan, PartialRead, TornWrite
from repro.lifecycle import (
    SUFFIX,
    RestoreError,
    SnapshotCorrupt,
    SnapshotManager,
    bulk_load,
    capture_payload,
    parse_payload,
    peek_version,
    read_envelope,
    warm_restart,
    write_envelope,
)
from repro.lifecycle.format import HEADER_SIZE, MAGIC
from repro.memsim.mainmem import MemorySystem
from repro.obs import Observability
from repro.obs.export import collect_all, stats_dict
from repro.workloads.generators import generate_dataset


@pytest.fixture(scope="module")
def data():
    return generate_dataset(3000, seed=77)


@pytest.fixture()
def tree(data, m1):
    keys, values = data
    return HBPlusTree(keys, values, machine=m1)


def _probe(keys, size=512):
    rng = np.random.default_rng(5)
    hits = rng.choice(keys, size=size // 2, replace=False)
    return np.concatenate([hits, hits + np.uint64(1)])


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        payload = b"x" * 1000
        path = write_envelope(tmp_path / f"a{SUFFIX}", payload)
        assert read_envelope(path) == payload
        assert peek_version(path) == 1

    def test_no_tmp_left_behind(self, tmp_path):
        write_envelope(tmp_path / f"a{SUFFIX}", b"abc")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_truncated_rejected(self, tmp_path):
        path = write_envelope(tmp_path / f"a{SUFFIX}", b"y" * 500)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(SnapshotCorrupt, match="truncated"):
            read_envelope(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / f"a{SUFFIX}"
        path.write_bytes(b"NOTSNAP!" + b"\x00" * 64)
        with pytest.raises(SnapshotCorrupt, match="magic"):
            read_envelope(path)
        assert peek_version(path) is None

    def test_flipped_payload_bit_rejected(self, tmp_path):
        path = write_envelope(tmp_path / f"a{SUFFIX}", b"z" * 256)
        blob = bytearray(path.read_bytes())
        blob[HEADER_SIZE + 100] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorrupt, match="CRC"):
            read_envelope(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = write_envelope(tmp_path / f"a{SUFFIX}", b"w" * 64)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC)] = 99  # little-endian version low byte
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorrupt, match="version"):
            read_envelope(path)

    def test_torn_write_spares_target(self, tmp_path):
        target = tmp_path / f"a{SUFFIX}"
        write_envelope(target, b"intact" * 100)
        before = target.read_bytes()
        inj = FaultInjector(FaultPlan(seed=3, torn_write=1.0))
        with pytest.raises(TornWrite):
            write_envelope(target, b"replacement" * 100, injector=inj)
        # target untouched; the torn temp file is the only debris
        assert target.read_bytes() == before
        (tmp,) = tmp_path.glob("*.tmp")
        assert tmp.stat().st_size < len(b"replacement" * 100) + HEADER_SIZE

    def test_partial_read_rejected_as_corrupt(self, tmp_path):
        path = write_envelope(tmp_path / f"a{SUFFIX}", b"p" * 4096)
        inj = FaultInjector(FaultPlan(seed=3, partial_read=1.0))
        with pytest.raises(SnapshotCorrupt):
            read_envelope(path, injector=inj)
        assert inj.stats.partial_reads == 1
        # the file itself is fine: a clean reader succeeds
        assert read_envelope(path) == b"p" * 4096


class TestPayload:
    def test_capture_parse_round_trip(self, tree, data):
        keys, values = data
        payload = capture_payload(tree, split=(1, 0.25), epoch=7)
        contents = parse_payload(payload)
        assert contents.kind == "hb-regular"
        assert contents.key_bits == 64
        assert contents.epoch == 7
        assert contents.split == (1, 0.25)
        assert contents.mirror_crc is not None
        assert contents.mirror_meta["node_stride"] == tree.node_stride
        assert contents.mirror_meta["last_base"] == tree.last_base
        assert np.array_equal(contents.keys, np.sort(keys))

    def test_capture_reads_only(self, tree):
        """Capturing consults no GPU site: lookups before and after a
        snapshot are bit-identical under any fault plan."""
        inj = FaultInjector(FaultPlan.uniform(0.5, seed=21))
        tree.attach_injector(inj)
        schedule_before = inj.schedule()
        capture_payload(tree, split=(0, 0.0))
        assert inj.schedule() == schedule_before
        assert inj.stats.total_faults == 0


class TestManager:
    def test_save_restore_round_trip(self, tree, data, m1, tmp_path):
        keys, _values = data
        manager = SnapshotManager(tmp_path)
        path = manager.save(tree, split=(0, 0.0))
        assert path is not None and path.suffix == SUFFIX
        result = manager.restore_latest(machine=m1)
        assert result.source == "snapshot"
        assert result.skipped == 0
        assert result.split == (0, 0.0)
        assert result.mirror_verified  # pristine tree: byte-exact image
        probe = _probe(keys)
        assert np.array_equal(
            result.tree.lookup_batch(probe), tree.lookup_batch(probe)
        )

    def test_sequence_and_prune(self, tree, tmp_path):
        manager = SnapshotManager(tmp_path, keep=2)
        for _ in range(4):
            manager.save(tree)
        names = [p.name for p in manager.snapshots()]
        assert names == [f"snap-0000000{i}{SUFFIX}" for i in (3, 4)]
        assert manager.stats.pruned == 2

    def test_ladder_falls_back_to_intact(self, tree, data, m1, tmp_path):
        keys, _values = data
        manager = SnapshotManager(tmp_path)
        intact = manager.save(tree, split=(0, 0.0))
        newest = manager.save(tree, split=(0, 0.0))
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0xFF
        newest.write_bytes(bytes(blob))
        result = manager.restore_latest(machine=m1)
        assert result.path == intact
        assert result.skipped == 1
        assert manager.stats.restore_fallbacks == 1
        assert manager.stats.corrupt_snapshots == 1
        probe = _probe(keys)
        assert np.array_equal(
            result.tree.lookup_batch(probe), tree.lookup_batch(probe)
        )

    def test_empty_directory_raises(self, tmp_path, m1):
        with pytest.raises(RestoreError):
            SnapshotManager(tmp_path).restore_latest(machine=m1)

    def test_cold_source_is_last_rung(self, tree, data, m1, tmp_path):
        keys, values = data
        inj = FaultInjector(FaultPlan(seed=5, storage_bitflip=1.0))
        manager = SnapshotManager(tmp_path, injector=inj)
        assert manager.save(tree) is not None  # silently corrupt
        result = manager.restore_latest(
            machine=m1,
            cold_source=lambda: HBPlusTree(keys, values, machine=m1),
        )
        assert result.source == "cold"
        assert result.split is None
        assert result.skipped == 1
        assert manager.stats.cold_builds == 1

    def test_cold_rung_answers_like_the_lost_tree(self, tree, data, m1,
                                                  tmp_path):
        keys, values = data
        inj = FaultInjector(FaultPlan(seed=13, storage_bitflip=1.0))
        manager = SnapshotManager(tmp_path, injector=inj)
        manager.save(tree)  # silently corrupt
        result = manager.restore_latest(
            machine=m1,
            cold_source=lambda: HBPlusTree(keys, values, machine=m1),
        )
        assert result.source == "cold"
        probe = _probe(keys)
        assert np.array_equal(
            result.tree.lookup_batch(probe), tree.lookup_batch(probe)
        )

    def test_torn_write_contained(self, tree, data, tmp_path):
        """A torn write costs the snapshot — never the live tree or
        the directory's existing snapshots."""
        keys, _values = data
        clean = SnapshotManager(tmp_path)
        clean.save(tree, split=(0, 0.0))
        before = [p.name for p in clean.snapshots()]
        probe = _probe(keys)
        expected = tree.lookup_batch(probe)
        torn = SnapshotManager(
            tmp_path,
            injector=FaultInjector(FaultPlan(seed=9, torn_write=1.0)),
        )
        assert torn.save(tree) is None
        assert torn.stats.snapshot_failures == 1
        assert [p.name for p in torn.snapshots()] == before
        assert np.array_equal(tree.lookup_batch(probe), expected)

    def test_deterministic_fault_replay(self, tree, m1, tmp_path):
        """The same storage plan against the same op sequence yields an
        identical fault schedule and identical ladder outcomes."""
        outcomes = []
        for run in range(2):
            inj = FaultInjector(FaultPlan.storage(0.6, seed=41))
            manager = SnapshotManager(tmp_path / f"run{run}", injector=inj)
            with inj.paused():
                manager.save(tree, split=(0, 0.0))
            for _ in range(3):
                manager.save(tree, split=(0, 0.0))
            result = manager.restore_latest(machine=m1)
            outcomes.append(
                (inj.schedule(), result.skipped,
                 result.path.name, manager.stats.snapshot())
            )
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) > 0

    def test_obs_wiring(self, tree, m1, tmp_path):
        obs = Observability()
        inj = FaultInjector(FaultPlan(seed=5, storage_bitflip=1.0))
        manager = SnapshotManager(tmp_path, injector=inj, obs=obs)
        events = []
        obs.hooks.subscribe(
            "snapshot", lambda **kw: events.append(("snap", kw))
        )
        obs.hooks.subscribe(
            "snapshot_rejected",
            lambda **kw: events.append(("rejected", kw)),
        )
        with inj.paused():
            manager.save(tree)  # intact, oldest
        manager.save(tree)  # newest, silently corrupt
        manager.restore_latest(machine=m1)
        names = [e[0] for e in events]
        assert names.count("snap") == 2
        assert "rejected" in names
        snap = collect_all(obs.metrics, lifecycle=manager)
        assert snap["live.lifecycle.snapshots"] == 2
        assert snap["live.lifecycle.corrupt_snapshots"] == 1
        assert snap["lifecycle.restores"] == 1
        assert snap["lifecycle.on_disk"] == 2

    def test_mutated_tree_restores_with_layout_drift(self, data, m1,
                                                     tmp_path):
        """An insert-grown tree canonicalises to a different node
        layout on rebuild; that is drift, not corruption — the restore
        succeeds with identical answers and the drift is counted."""
        keys, values = data
        grown = HBPlusTree(keys, values, machine=m1, fill=0.7)
        for k in range(10_000_000, 10_000_200):
            grown.cpu_tree.insert(k, 1)
        grown.mirror_i_segment()
        manager = SnapshotManager(tmp_path)
        manager.save(grown, split=(0, 0.0))
        result = manager.restore_latest(machine=m1)
        assert result.source == "snapshot"
        assert not result.mirror_verified
        assert manager.stats.mirror_drift == 1
        probe = np.concatenate([
            _probe(keys),
            np.arange(10_000_000, 10_000_200, dtype=np.uint64),
        ])
        assert np.array_equal(
            result.tree.lookup_batch(probe), grown.lookup_batch(probe)
        )

    def test_hb_implicit_round_trip(self, data, m1, tmp_path):
        keys, values = data
        original = ImplicitHBPlusTree(keys, values, machine=m1)
        manager = SnapshotManager(tmp_path)
        manager.save(original, split=(2, 0.5))
        result = manager.restore_latest(machine=m1)
        assert isinstance(result.tree, ImplicitHBPlusTree)
        assert result.split == (2, 0.5)
        probe = _probe(keys)
        assert np.array_equal(
            result.tree.lookup_batch(probe), original.lookup_batch(probe)
        )


class TestWarmRestart:
    def test_pinned_split_without_reprofile(self, tree, m1, tmp_path):
        manager = SnapshotManager(tmp_path)
        committed = (tree.height, 1.0)  # cpu-only mode, clearly non-default
        manager.save(tree, split=committed)
        warm = warm_restart(manager, machine=m1)
        assert warm.controller is not None
        assert warm.controller.split() == committed
        assert warm.controller.cpu_only
        # no init-time profiling window: the balancer carries no profile
        assert not hasattr(warm.controller.balancer, "cpu_level_ns")
        assert warm.restore.source == "snapshot"

    def test_warm_controller_serves_and_adapts(self, tree, data, m1,
                                               tmp_path):
        keys, _values = data
        manager = SnapshotManager(tmp_path)
        manager.save(tree, split=(0, 0.0))
        warm = warm_restart(manager, machine=m1)
        resilient = ResilientHBPlusTree(warm.tree,
                                        adaptive=warm.controller)
        probe = _probe(keys)
        assert np.array_equal(
            resilient.engine.lookup_batch(probe), tree.lookup_batch(probe)
        )

    def test_cold_restore_has_no_controller(self, data, m1, tmp_path):
        keys, values = data
        warm = warm_restart(
            SnapshotManager(tmp_path), machine=m1,
            cold_source=lambda: HBPlusTree(keys, values, machine=m1),
        )
        assert warm.controller is None
        assert warm.restore.source == "cold"

    def test_splitless_snapshot_has_no_controller(self, tree, m1,
                                                  tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.save(tree)  # no committed split recorded
        warm = warm_restart(manager, machine=m1)
        assert warm.controller is None


class TestResilientSnapshot:
    def test_snapshot_to_carries_adaptive_split(self, tree, m1, tmp_path):
        controller = AdaptiveController.for_tree(tree)
        resilient = ResilientHBPlusTree(tree, adaptive=controller)
        manager = SnapshotManager(tmp_path)
        path = resilient.snapshot_to(manager)
        assert path is not None
        assert resilient.stats.snapshots == 1
        result = manager.restore_latest(machine=m1)
        assert result.split == controller.split()

    def test_snapshot_failure_never_degrades_service(self, tree, data,
                                                     m1, tmp_path):
        keys, _values = data
        resilient = ResilientHBPlusTree(tree)
        probe = _probe(keys)
        expected = resilient.engine.lookup_batch(probe)
        manager = SnapshotManager(
            tmp_path,
            injector=FaultInjector(FaultPlan(seed=7, torn_write=1.0)),
        )
        assert resilient.snapshot_to(manager) is None
        assert resilient.stats.snapshot_failures == 1
        assert not resilient.degraded
        assert np.array_equal(resilient.engine.lookup_batch(probe), expected)


class TestBulkLoad:
    def test_bulk_load_sorts_unsorted_input(self, data, m1):
        keys, values = data
        rng = np.random.default_rng(2)
        order = rng.permutation(len(keys))
        tree = bulk_load("hb-regular", keys[order], values[order],
                         machine=m1)
        probe = _probe(keys)
        assert np.array_equal(
            tree.lookup_batch(probe),
            HBPlusTree(keys, values, machine=m1).lookup_batch(probe),
        )

    def test_bulk_matches_per_key(self, m1):
        keys, values = generate_dataset(600, seed=3)
        bulk = bulk_load("hb-regular", keys, values, machine=m1)
        perkey = cold_build_per_key(keys, values, m1)
        probe = _probe(keys, size=200)
        assert np.array_equal(
            bulk.lookup_batch(probe), perkey.lookup_batch(probe)
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bulk_load("css", [1, 2, 3], [1, 2])


class TestSnapshotUnderLoad:
    def _serve_and_snapshot(self, engine, manager, probe, expected):
        results = []
        errors = []

        def serve():
            try:
                for _ in range(8):
                    results.append(engine.lookup_batch(probe))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        worker = threading.Thread(target=serve)
        worker.start()
        paths = [manager.save_engine(engine, split=(0, 0.0))
                 for _ in range(3)]
        worker.join()
        assert not errors
        assert all(p is not None for p in paths)
        assert len(results) == 8
        for got in results:
            assert np.array_equal(got, expected)

    def test_batching_engine(self, data, m1, tmp_path):
        keys, values = data
        tree = HBPlusTree(keys, values, machine=m1)
        engine = BatchingEngine(tree)
        probe = _probe(keys)
        expected = tree.lookup_batch(probe)
        manager = SnapshotManager(tmp_path)
        self._serve_and_snapshot(engine, manager, probe, expected)
        # and the snapshots restore to the same answers
        result = manager.restore_latest(machine=m1)
        assert np.array_equal(result.tree.lookup_batch(probe), expected)


# ----------------------------------------------------------------------
# the bit-identity property (satellite): any kind, any fault plan


def _build(kind, keys, values, machine, mem):
    if kind == "implicit-cpu":
        return ImplicitCpuBPlusTree(keys, values, mem=mem)
    if kind == "regular-cpu":
        return RegularCpuBPlusTree(keys, values, mem=mem)
    if kind == "css":
        return CssTree(keys, values, mem=mem)
    if kind == "fast":
        return FastTree(keys, values, mem=mem)
    if kind == "hb-implicit":
        return ImplicitHBPlusTree(keys, values, machine=machine, mem=mem)
    if kind == "hb-regular":
        return HBPlusTree(keys, values, machine=machine, mem=mem)
    raise AssertionError(kind)


def _modeled_counters(tree):
    """Every modeled counter a lookup batch can move on this tree."""
    out = {}
    mem = getattr(tree, "mem", None)
    if mem is not None:
        out.update(
            (f"mem.{k}", v) for k, v in stats_dict(mem.counters).items()
        )
    device = getattr(tree, "device", None)
    if device is not None:
        out["gpu.kernel_launches"] = device.kernel_launches
        out.update(
            (f"gpu.{k}", v) for k, v in stats_dict(device.stats).items()
        )
    link = getattr(tree, "link", None)
    if link is not None:
        out.update(
            (f"pcie.{k}", v) for k, v in stats_dict(link.stats).items()
        )
    return out


def _counter_delta(tree, probe):
    before = _modeled_counters(tree)
    results = tree.lookup_batch(probe)
    after = _modeled_counters(tree)
    delta = {
        k: after[k] - before[k]
        for k in after
        if isinstance(after[k], (int, float))
    }
    return results, delta


KINDS = ["implicit-cpu", "regular-cpu", "css", "fast",
         "hb-implicit", "hb-regular"]


class TestRestoredBitIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    @given(
        seed=st.integers(0, 2**16),
        torn=st.sampled_from([0.0, 0.4, 1.0]),
        rot=st.sampled_from([0.0, 0.4, 1.0]),
        partial=st.sampled_from([0.0, 0.4]),
    )
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_restored_tree_is_bit_identical(self, kind, m1, tmp_path,
                                            seed, torn, rot, partial):
        """For every kind and any storage fault plan, a restored index
        answers the same lookups with identical results and identical
        modeled counters as the original.

        (``partial_read`` stays below 1.0: at 1.0 every read — even of
        an intact snapshot — is truncated, so no restore can ever
        succeed and there is nothing to compare.)
        """
        import tempfile

        keys, values = generate_dataset(300, seed=17)
        plan = FaultPlan(seed=seed, torn_write=torn,
                         storage_bitflip=rot, partial_read=partial)
        original = _build(kind, keys, values, m1, MemorySystem())
        with tempfile.TemporaryDirectory() as tmp:
            inj = FaultInjector(plan)
            manager = SnapshotManager(tmp, injector=inj)
            with inj.paused():
                assert manager.save(original) is not None
            # more attempts under fire: may tear, rot, or succeed
            for _ in range(2):
                manager.save(original)
            result = manager.restore_latest(
                machine=m1, mem=MemorySystem(),
                cold_source=lambda: _build(
                    kind, keys, values, m1, MemorySystem()
                ),
            )
        probe = _probe(keys, size=128)
        expected, expected_delta = _counter_delta(original, probe)
        got, got_delta = _counter_delta(result.tree, probe)
        assert np.array_equal(expected, got)
        assert got.dtype == expected.dtype
        assert got_delta == expected_delta
