"""The CPU <-> GPU interconnect.

Transfers follow the paper's cost model (section 5.4):

    ``T = T_init + size / Bandwidth``

with a fixed initialization latency per transfer — the term that makes
many small synchronizing transfers lose to one big asynchronous one in
the update experiments (Fig 13-14).

A :class:`~repro.faults.FaultInjector` may be attached to the link;
every transfer then consults it first.  A failed or timed-out transfer
leaves the device buffer untouched, still burns the modeled wire time
(the data travelled before the abort), and is counted separately in
:class:`TransferStats` so retries are visible in the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpusim.memory import DeviceBuffer, DeviceMemory
from repro.obs import NULL_OBS
from repro.obs.stats import Stats
from repro.platform.configs import PcieSpec


@dataclass
class TransferStats(Stats):
    """Accumulated link activity."""

    transfers: int = 0
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    total_time_ns: float = 0.0
    #: transfers aborted by an injected fault or timeout; their wire
    #: time is included in ``total_time_ns`` but no bytes are counted
    failed_transfers: int = 0


class PcieLink:
    """Moves data between host numpy arrays and device buffers."""

    def __init__(self, spec: PcieSpec, injector: Optional[object] = None):
        self.spec = spec
        self.stats = TransferStats()
        #: optional :class:`repro.faults.FaultInjector`
        self.injector = injector
        #: :class:`repro.obs.Observability`; the shared disabled bundle
        #: unless threaded in via ``HBPlusTree.attach_obs``
        self.obs = NULL_OBS

    def time_ns(self, nbytes: int) -> float:
        """Cost of one transfer of ``nbytes`` (either direction)."""
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        return self.spec.transfer_ns(nbytes)

    def _check_fault(self, nbytes: int) -> None:
        """Consult the injector; on a fault, account the wasted wire
        time and re-raise without touching device state."""
        if self.injector is None:
            return
        try:
            self.injector.on_transfer(nbytes)
        except Exception:
            self.stats.failed_transfers += 1
            self.stats.total_time_ns += self.time_ns(nbytes)
            raise

    def to_device(
        self, memory: DeviceMemory, name: str, host_array: np.ndarray
    ) -> float:
        """Upload ``host_array`` into buffer ``name``; returns time (ns)."""
        t = self.time_ns(host_array.nbytes)  # validates the size first
        with self.obs.span("pcie.h2d", category="pcie", buffer=name,
                           bytes=host_array.nbytes, modeled_ns=t):
            self._check_fault(host_array.nbytes)
            memory.upload(name, host_array)
        self.stats.transfers += 1
        self.stats.bytes_to_device += host_array.nbytes
        self.stats.total_time_ns += t
        self.obs.count("live.pcie.bytes_to_device", host_array.nbytes)
        return t

    def update_device(
        self,
        memory: DeviceMemory,
        name: str,
        host_array: np.ndarray,
        offset_elems: int = 0,
    ) -> float:
        """Overwrite part of an existing buffer (node synchronization).

        Used by the synchronized update method (section 5.6), where each
        modified inner node is pushed to GPU memory individually.
        """
        buf = memory.get(name)
        flat = buf.array.reshape(-1)
        src = host_array.reshape(-1)
        if src.dtype != flat.dtype:
            raise ValueError(
                f"partial update dtype mismatch: host {src.dtype} vs "
                f"device {flat.dtype}"
            )
        if offset_elems < 0:
            raise ValueError("partial update offset cannot be negative")
        if offset_elems + src.size > flat.size:
            raise ValueError("partial update exceeds device buffer bounds")
        t = self.time_ns(src.nbytes)  # rejects zero-size uploads
        with self.obs.span("pcie.h2d_update", category="pcie", buffer=name,
                           bytes=src.nbytes, modeled_ns=t):
            self._check_fault(src.nbytes)
            flat[offset_elems: offset_elems + src.size] = src
        self.stats.transfers += 1
        self.stats.bytes_to_device += src.nbytes
        self.stats.total_time_ns += t
        self.obs.count("live.pcie.bytes_to_device", src.nbytes)
        return t

    def to_host(self, buffer: DeviceBuffer) -> "tuple[np.ndarray, float]":
        """Download a buffer; returns (array copy, time ns)."""
        t = self.time_ns(buffer.nbytes)
        with self.obs.span("pcie.d2h", category="pcie",
                           bytes=buffer.nbytes, modeled_ns=t):
            self._check_fault(buffer.nbytes)
            copy = buffer.array.copy()
        self.stats.transfers += 1
        self.stats.bytes_to_host += buffer.nbytes
        self.stats.total_time_ns += t
        self.obs.count("live.pcie.bytes_to_host", buffer.nbytes)
        return copy, t
