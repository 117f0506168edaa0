"""Versioned snapshots, the restore ladder, and warm restart.

A snapshot captures everything a node needs to resume serving:

* the **L-segment** — the sorted key/value contents (the source of
  truth for every tree kind);
* the **I-segment mirror metadata** — the CRC of the packed device
  image (``pack_i_segment()``) plus its layout parameters
  (``mirror_layout()``), so a restore can prove the rebuilt mirror is
  bit-identical to the one that was serving;
* the **committed (D, R) split** — the adaptive controller's last
  applied operating point, so a warm restart serves at it from the
  first bucket instead of re-discovering from scratch.

Restore is a ladder: newest snapshot first, envelope-validated
(:func:`repro.lifecycle.format.read_envelope`) and mirror-verified;
any corrupt rung — torn write, bit rot, partial read, mirror mismatch
— is skipped and the next-newest tried; when every snapshot is
exhausted an optional cold source bulk-builds from scratch.  Rebuilds
go through :func:`repro.io.build_index`, the sort-based bottom-up
path — never per-key inserts.
"""

from __future__ import annotations

import io as _stdio
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.hybrid import HybridTree
from repro.faults.plan import FaultError
from repro.io import _KINDS, _parse_meta, build_index
from repro.lifecycle.format import (
    SUFFIX,
    SnapshotCorrupt,
    read_envelope,
    write_envelope,
)
from repro.memsim.mainmem import MemorySystem
from repro.obs import NULL_OBS
from repro.platform.configs import MachineConfig

#: payload schema version (independent of the envelope format version)
PAYLOAD_VERSION = 1

Split = Tuple[int, float]


# ----------------------------------------------------------------------
# payload capture / parse


def mirror_image(tree) -> Optional[np.ndarray]:
    """The device I-segment image of a hybrid tree, packed from the
    CPU side only (no device access, no injector draws, no counters).

    None for CPU-only kinds — they have no mirror to verify.
    """
    return tree.pack_i_segment() if isinstance(tree, HybridTree) else None


def _mirror_meta(tree) -> Dict[str, int]:
    """Layout parameters the rebuilt mirror must reproduce exactly."""
    return tree.mirror_layout() if isinstance(tree, HybridTree) else {}


@dataclass
class SnapshotContents:
    """A parsed snapshot payload, ready to rebuild from."""

    kind: str
    key_bits: int
    keys: np.ndarray
    values: np.ndarray
    epoch: int
    split: Optional[Split] = None
    fanout: Optional[int] = None
    mirror_crc: Optional[int] = None
    mirror_meta: Dict[str, int] = field(default_factory=dict)


def capture_payload(tree, split: Optional[Split] = None,
                    epoch: int = 0) -> bytes:
    """Serialize a tree (plus the committed split) to payload bytes.

    Read-only: packs the mirror image from the CPU tree, so capturing
    never consults the injector's GPU sites or mutates device
    counters — lookups before and after a snapshot are bit-identical.
    """
    for cls, kind in _KINDS.items():
        if type(tree) is cls:
            break
    else:
        raise TypeError(f"cannot snapshot a {type(tree).__name__}")
    keys, values = tree.stored_items()
    meta = {
        "payload_version": PAYLOAD_VERSION,
        "kind": kind,
        "key_bits": tree.spec.bits,
        "epoch": int(epoch),
    }
    if kind == "implicit-cpu":
        meta["fanout"] = tree.fanout
    for name, value in _mirror_meta(tree).items():
        meta[f"mirror_{name}"] = value
    arrays = {
        "keys": keys,
        "values": values,
        "meta": np.asarray([f"{k}={v}" for k, v in meta.items()]),
    }
    if split is not None:
        arrays["split"] = np.asarray(
            [float(split[0]), float(split[1])], dtype=np.float64
        )
    image = mirror_image(tree)
    if image is not None:
        arrays["mirror_crc"] = np.asarray(
            [zlib.crc32(image.tobytes()) & 0xFFFFFFFF], dtype=np.uint64
        )
    buf = _stdio.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def parse_payload(payload: bytes) -> SnapshotContents:
    """Decode payload bytes (already envelope-validated)."""
    with np.load(_stdio.BytesIO(payload), allow_pickle=False) as archive:
        keys = archive["keys"]
        values = archive["values"]
        meta = _parse_meta(archive["meta"])
        split = None
        if "split" in archive.files:
            raw = archive["split"]
            split = (int(raw[0]), float(raw[1]))
        mirror_crc = None
        if "mirror_crc" in archive.files:
            mirror_crc = int(archive["mirror_crc"][0])
    version = int(meta.get("payload_version", -1))
    if version != PAYLOAD_VERSION:
        raise SnapshotCorrupt(
            "<payload>", f"unsupported payload version {version}"
        )
    mirror_meta = {
        k[len("mirror_"):]: int(v)
        for k, v in meta.items()
        if k.startswith("mirror_") and k != "mirror_crc"
    }
    return SnapshotContents(
        kind=meta["kind"],
        key_bits=int(meta["key_bits"]),
        keys=keys,
        values=values,
        epoch=int(meta.get("epoch", 0)),
        split=split,
        fanout=int(meta["fanout"]) if "fanout" in meta else None,
        mirror_crc=mirror_crc,
        mirror_meta=mirror_meta,
    )


# ----------------------------------------------------------------------
# the manager


@dataclass
class LifecycleStats:
    """Snapshot/restore activity, mirrored to ``live.lifecycle.*``."""

    snapshots: int = 0
    snapshot_failures: int = 0
    snapshot_bytes: int = 0
    pruned: int = 0
    restores: int = 0
    restore_fallbacks: int = 0
    corrupt_snapshots: int = 0
    cold_builds: int = 0
    mirror_drift: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "snapshots": self.snapshots,
            "snapshot_failures": self.snapshot_failures,
            "snapshot_bytes": self.snapshot_bytes,
            "pruned": self.pruned,
            "restores": self.restores,
            "restore_fallbacks": self.restore_fallbacks,
            "corrupt_snapshots": self.corrupt_snapshots,
            "cold_builds": self.cold_builds,
            "mirror_drift": self.mirror_drift,
        }


class RestoreError(RuntimeError):
    """No intact snapshot survived the ladder and no cold source was
    available."""


@dataclass
class RestoreResult:
    """What a restore produced and where it came from."""

    tree: object
    split: Optional[Split]
    source: str  # "snapshot" or "cold"
    path: Optional[Path] = None
    epoch: int = 0
    #: snapshots rejected (corrupt / unreadable) before this one
    skipped: int = 0
    #: True when the rebuilt GPU mirror reproduced the capture-time
    #: device image bit-for-bit (see ``SnapshotManager._rebuild``)
    mirror_verified: bool = False


class SnapshotManager:
    """Owns a directory of versioned snapshots and the restore ladder.

    ``save`` is atomic and failure-contained: an injected storage
    fault costs the snapshot, never the live tree or any existing
    snapshot.  ``restore_latest`` walks snapshots newest-first and
    degrades — corrupt rungs are counted, skipped, and reported
    through obs; ``cold_source`` is the last rung.
    """

    def __init__(self, directory: Union[str, Path], injector=None,
                 obs=None, keep: int = 8):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.injector = injector
        self.obs = obs if obs is not None else NULL_OBS
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.keep = keep
        self.stats = LifecycleStats()

    # -- directory ------------------------------------------------------

    def snapshots(self) -> List[Path]:
        """Snapshot files, oldest first (sequence order)."""
        return sorted(self.directory.glob(f"*{SUFFIX}"))

    def _next_path(self) -> Path:
        seq = 0
        for path in self.snapshots():
            stem = path.name[: -len(SUFFIX)]
            try:
                seq = max(seq, int(stem.rsplit("-", 1)[-1]))
            except ValueError:
                continue
        return self.directory / f"snap-{seq + 1:08d}{SUFFIX}"

    def _prune(self) -> None:
        extra = self.snapshots()[: -self.keep]
        for path in extra:
            path.unlink()
            self.stats.pruned += 1

    # -- save -----------------------------------------------------------

    def save(self, tree, split: Optional[Split] = None,
             epoch: Optional[int] = None) -> Optional[Path]:
        """Snapshot ``tree`` (and the committed split) atomically.

        Returns the written path, or None when an injected storage
        fault aborted the write — in which case the target directory's
        set of valid snapshots is exactly what it was before.
        """
        obs = self.obs
        path = self._next_path()
        if epoch is None:
            epoch = int(path.name[len("snap-"): -len(SUFFIX)])
        kind = _KINDS.get(type(tree), type(tree).__name__)
        with obs.span("lifecycle.snapshot", kind=kind, path=path.name):
            payload = capture_payload(tree, split=split, epoch=epoch)
            try:
                write_envelope(path, payload, injector=self.injector)
            except FaultError as exc:
                self.stats.snapshot_failures += 1
                obs.count("live.lifecycle.snapshot_failures")
                obs.emit("snapshot_failed", path=str(path),
                         fault=exc.kind.value)
                return None
        self.stats.snapshots += 1
        self.stats.snapshot_bytes += len(payload)
        obs.count("live.lifecycle.snapshots")
        obs.emit("snapshot", path=str(path), epoch=epoch,
                 bytes=len(payload), split=split)
        self._prune()
        return path

    def save_engine(self, engine, split: Optional[Split] = None,
                    epoch: Optional[int] = None) -> Optional[Path]:
        """Snapshot a live engine's tree under load.

        Quiesces the engine (waits out in-flight batches, parks new
        ones) for exactly the duration of the capture+write; when
        ``split`` is omitted the engine's balancer, if any, supplies
        its current committed split.
        """
        if split is None and getattr(engine, "balancer", None) is not None:
            split = engine.balancer.split()
        with engine.quiesce():
            return self.save(engine.tree, split=split, epoch=epoch)

    # -- restore --------------------------------------------------------

    def restore_latest(
        self,
        machine: Optional[MachineConfig] = None,
        mem: Optional[MemorySystem] = None,
        fill: float = 1.0,
        cold_source: Optional[Callable[[], object]] = None,
    ) -> RestoreResult:
        """Rebuild from the newest intact snapshot, degrading as needed.

        The ladder: newest snapshot → next-newest → ... →
        ``cold_source()`` → :class:`RestoreError`.  A rung is rejected
        for a bad envelope (torn / truncated / bit-rotted / partially
        read); the rebuilt GPU mirror is then checked against the
        capture-time image CRC, with the outcome reported as
        ``RestoreResult.mirror_verified`` (see :meth:`_rebuild`).
        """
        obs = self.obs
        skipped = 0
        with obs.span("lifecycle.restore", directory=str(self.directory)):
            for path in reversed(self.snapshots()):
                try:
                    payload = read_envelope(path, injector=self.injector)
                    contents = parse_payload(payload)
                    tree, verified = self._rebuild(
                        contents, machine, mem, fill, path
                    )
                except (SnapshotCorrupt, FaultError) as exc:
                    skipped += 1
                    self.stats.corrupt_snapshots += 1
                    obs.count("live.lifecycle.corrupt_snapshots")
                    obs.emit("snapshot_rejected", path=str(path),
                             reason=str(exc))
                    continue
                self.stats.restores += 1
                if skipped:
                    self.stats.restore_fallbacks += 1
                    obs.count("live.lifecycle.restore_fallbacks")
                obs.count("live.lifecycle.restores")
                obs.emit("restore", path=str(path), epoch=contents.epoch,
                         skipped=skipped, split=contents.split)
                return RestoreResult(
                    tree=tree, split=contents.split, source="snapshot",
                    path=path, epoch=contents.epoch, skipped=skipped,
                    mirror_verified=verified,
                )
            if cold_source is not None:
                with obs.span("lifecycle.cold_build"):
                    tree = cold_source()
                self.stats.cold_builds += 1
                obs.count("live.lifecycle.cold_builds")
                obs.emit("restore", path=None, epoch=0, skipped=skipped,
                         split=None)
                return RestoreResult(
                    tree=tree, split=None, source="cold", skipped=skipped,
                )
        raise RestoreError(
            f"no intact snapshot in {self.directory} "
            f"({skipped} rejected) and no cold source"
        )

    def _rebuild(self, contents: SnapshotContents,
                 machine, mem, fill, path):
        """Bulk-build from parsed contents and verify the mirror.

        Returns ``(tree, mirror_verified)``.  ``mirror_verified`` is
        True when the rebuilt I-segment reproduces the capture-time
        device image bit-for-bit (layout meta and CRC both match) —
        guaranteed for a pristine bulk-built source restored at the
        same fill.  A mismatch is *drift*, not corruption: the
        envelope CRC already vouched for the contents, and an
        insert-grown source tree (or a different ``fill``)
        legitimately canonicalises to another node arrangement with
        identical lookup answers.  Drift is counted and emitted so an
        operator can tell a byte-exact warm image from a logically
        equivalent rebuild.
        """
        tree = build_index(
            contents.kind, contents.keys, contents.values,
            key_bits=contents.key_bits, fanout=contents.fanout,
            mem=mem, machine=machine, fill=fill,
        )
        verified = False
        if contents.mirror_crc is not None:
            image = mirror_image(tree)
            crc = (
                zlib.crc32(image.tobytes()) & 0xFFFFFFFF
                if image is not None else None
            )
            rebuilt_meta = _mirror_meta(tree)
            verified = (
                crc == contents.mirror_crc
                and rebuilt_meta == contents.mirror_meta
            )
            if not verified:
                self.stats.mirror_drift += 1
                self.obs.count("live.lifecycle.mirror_drift")
                self.obs.emit(
                    "mirror_layout_drift", path=str(path),
                    saved=contents.mirror_meta, rebuilt=rebuilt_meta,
                )
        return tree, verified


# ----------------------------------------------------------------------
# warm restart


@dataclass
class WarmRestart:
    """A restored tree plus its pinned adaptive controller."""

    tree: object
    controller: Optional[AdaptiveController]
    restore: RestoreResult


def warm_restart(
    manager: SnapshotManager,
    machine: Optional[MachineConfig] = None,
    mem: Optional[MemorySystem] = None,
    fill: float = 1.0,
    cold_source: Optional[Callable[[], object]] = None,
    config: Optional[AdaptiveConfig] = None,
    bucket_size: Optional[int] = None,
    obs=None,
) -> WarmRestart:
    """Restore + resume serving at the committed (D, R) split.

    When the restored snapshot carried a committed split and the tree
    is hybrid, the returned controller starts pinned at that split
    with *no* init-time reprofiling or discovery — the first live
    window re-profiles on real traffic before any move, exactly like
    a controller that had been running all along.  Cold restores (no
    snapshot survived) get ``controller=None``: with no committed
    split to trust, the caller should discover from scratch.
    """
    result = manager.restore_latest(
        machine=machine, mem=mem, fill=fill, cold_source=cold_source
    )
    controller = None
    if result.split is not None and isinstance(result.tree, HybridTree):
        controller = AdaptiveController.warm_start(
            result.tree, result.split, config=config,
            bucket_size=bucket_size, obs=obs,
        )
    return WarmRestart(tree=result.tree, controller=controller,
                       restore=result)
