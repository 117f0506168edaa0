"""Crash-consistent index lifecycle: snapshot, restore, warm restart.

The paper builds an index once and measures steady-state search; a
production index *restarts* — on deploys, node failures and flaky
disks — and the restart path is where naive designs lose either data
(torn snapshot accepted as truth) or minutes (cold per-key rebuild,
then a full re-discovery of the (D, R) split).  This package closes
both holes:

* :mod:`repro.lifecycle.format` — the versioned, CRC-checksummed,
  atomically-written snapshot envelope;
* :mod:`repro.lifecycle.snapshot` — payload capture (both segments,
  GPU mirror metadata, the committed split), the
  :class:`SnapshotManager` restore ladder (newest intact snapshot →
  older snapshots → cold bulk-build), and :func:`warm_restart`;
* :mod:`repro.lifecycle.bulkload` — the sort-based bottom-up rebuild
  every rung uses.

Storage faults (torn write, at-rest bitflip, partial read) inject
through :mod:`repro.faults` at dedicated sites, so every crash drill
replays deterministically; the ``lifecycle`` gate of
:mod:`repro.bench.gates` checks restore-vs-cold-build time and drill
outcomes in CI.
"""

from repro.lifecycle.bulkload import bulk_load
from repro.lifecycle.format import (
    FORMAT_VERSION,
    MAGIC,
    SUFFIX,
    SnapshotCorrupt,
    peek_version,
    read_envelope,
    write_envelope,
)
from repro.lifecycle.snapshot import (
    PAYLOAD_VERSION,
    LifecycleStats,
    RestoreError,
    RestoreResult,
    SnapshotContents,
    SnapshotManager,
    WarmRestart,
    capture_payload,
    mirror_image,
    parse_payload,
    warm_restart,
)

__all__ = [
    "MAGIC",
    "SUFFIX",
    "FORMAT_VERSION",
    "PAYLOAD_VERSION",
    "SnapshotCorrupt",
    "read_envelope",
    "write_envelope",
    "peek_version",
    "SnapshotContents",
    "capture_payload",
    "parse_payload",
    "mirror_image",
    "LifecycleStats",
    "SnapshotManager",
    "RestoreError",
    "RestoreResult",
    "WarmRestart",
    "warm_restart",
    "bulk_load",
]
